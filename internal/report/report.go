// Package report renders SafeFlow analysis reports: per-diagnostic
// listings with their unsafe-source witnesses (the distilled value-flow
// graph evidence the paper's manual inspection step relies on), and the
// Table 1 summary rows the benchmark harness regenerates.
package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"safeflow/internal/core"
	"safeflow/internal/diag"
	"safeflow/internal/metrics"
	"safeflow/internal/vfg"
)

// Write renders the full report for one analyzed system.
func Write(w io.Writer, rep *core.Report) {
	fmt.Fprintf(w, "SafeFlow report for %s\n", rep.Name)
	fmt.Fprintf(w, "%s\n", strings.Repeat("=", 20+len(rep.Name)))
	fmt.Fprintf(w, "source lines: %d   annotation lines: %d\n", rep.LinesOfCode, rep.AnnotationLines)
	if rep.PolicyExplicit {
		fmt.Fprintf(w, "policy: %s (fingerprint %s)\n", rep.PolicyName, shortFingerprint(rep.PolicyFingerprint))
	}

	fmt.Fprintf(w, "\nShared-memory regions (%d):\n", len(rep.Regions))
	for _, r := range rep.Regions {
		fmt.Fprintf(w, "  %s\n", r)
	}

	if len(rep.Internal) > 0 {
		fmt.Fprintf(w, "\nInternal errors — isolated analysis crashes, results may be partial (%d):\n",
			len(rep.Internal))
		for _, e := range rep.Internal {
			fmt.Fprintf(w, "  %v\n", e)
		}
	}

	if len(rep.Diagnostics) > 0 {
		units := diag.Units(rep.Diagnostics)
		fmt.Fprintf(w, "\nDegraded analysis — %d translation unit(s) skipped (%s):\n",
			len(units), strings.Join(units, ", "))
		for _, d := range rep.Diagnostics {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}

	if len(rep.AnnotationErrors) > 0 {
		fmt.Fprintf(w, "\nAnnotation errors (%d):\n", len(rep.AnnotationErrors))
		for _, e := range rep.AnnotationErrors {
			fmt.Fprintf(w, "  %v\n", e)
		}
	}

	if len(rep.Violations) > 0 {
		fmt.Fprintf(w, "\nRestriction violations (%d):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}

	fmt.Fprintf(w, "\nWarnings — unmonitored non-core accesses (%d):\n", len(rep.Warnings))
	for _, s := range rep.Warnings {
		fmt.Fprintf(w, "  %s\n", s)
	}

	fmt.Fprintf(w, "\nError dependencies (%d):\n", len(rep.ErrorsData))
	for _, e := range rep.ErrorsData {
		writeError(w, e, rep.PolicyExplicit)
	}

	fmt.Fprintf(w, "\nControl-dependence reports — manual inspection required (%d):\n",
		len(rep.ErrorsControlOnly))
	for _, e := range rep.ErrorsControlOnly {
		writeError(w, e, rep.PolicyExplicit)
	}

	if len(rep.Suppressed) > 0 {
		fmt.Fprintf(w, "\nSuppressed findings — audit trail of safeflow:ignore directives (%d):\n",
			len(rep.Suppressed))
		for _, sf := range rep.Suppressed {
			reason := sf.Reason
			if reason == "" {
				reason = "(no reason given)"
			}
			fmt.Fprintf(w, "  %s:%d: [%s] %s suppressed: %s\n", sf.File, sf.Line, sf.Rule, sf.Kind, reason)
			fmt.Fprintf(w, "      was: %s\n", sf.Text)
		}
	}

	if len(rep.SuppressionIssues) > 0 {
		fmt.Fprintf(w, "\nSuppression issues — directives the analysis cannot honor (%d):\n",
			len(rep.SuppressionIssues))
		for _, is := range rep.SuppressionIssues {
			fmt.Fprintf(w, "  %s\n", is)
		}
	}

	switch {
	case rep.Clean():
		fmt.Fprintf(w, "\nsafe value flow verified: no unmonitored non-core value reaches critical data\n")
	case rep.Degraded:
		fmt.Fprintf(w, "\nanalysis DEGRADED: the skipped units above were not verified; verdicts for the surviving units treat calls into skipped definitions conservatively\n")
	}
}

// shortFingerprint truncates a policy fingerprint for the human-facing
// header line (the JSON and SARIF forms carry the full digest).
func shortFingerprint(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// writeError prints one error with its value-flow witness: the unsafe
// sources the critical data depends on and the dependency kind of each.
// Rule attribution is shown only for explicitly configured policies, so
// default-policy reports stay byte-identical to historic output.
func writeError(w io.Writer, e *vfg.ErrorDep, attributeRule bool) {
	if attributeRule {
		fmt.Fprintf(w, "  %s [rule %s]\n", e, e.Rule)
	} else {
		fmt.Fprintf(w, "  %s\n", e)
	}
	for _, s := range e.SortedSources() {
		kind := e.Sources[s]
		fmt.Fprintf(w, "      via %s flow from %s\n", kind, s)
	}
}

// WriteStats renders a run-metrics snapshot in the text format printed
// by `safeflow -stats` and `sfbench -stats`.
func WriteStats(w io.Writer, m *metrics.RunMetrics) {
	if m == nil {
		return
	}
	fmt.Fprintf(w, "\nRun metrics (schema v%d)\n", m.SchemaVersion)
	fmt.Fprintf(w, "  wall time: %v\n", time.Duration(m.WallNS))
	for _, p := range m.Phases {
		fmt.Fprintf(w, "    %-10s %v\n", p.Name, time.Duration(p.WallNS))
	}
	fmt.Fprintf(w, "  translation units: %d   callgraph SCCs: %d   fixpoint rounds: %d\n",
		m.TranslationUnits, m.SCCs, m.FixpointRounds)
	fmt.Fprintf(w, "  summaries solved: %d   cache hits/misses: %d/%d   peak goroutines: %d\n",
		m.UnitsSolved, m.CacheHits, m.CacheMisses, m.PeakGoroutines)
	if m.IncludeMemoHits+m.IncludeMemoMisses > 0 {
		fmt.Fprintf(w, "  include memo hits/misses: %d/%d\n", m.IncludeMemoHits, m.IncludeMemoMisses)
	}
}

// Table1Header returns the header lines of the paper's Table 1.
func Table1Header() string {
	return fmt.Sprintf("%-17s %9s %11s %7s %9s %7s\n%s",
		"System", "LOC(core)", "Annot.lines", "Errors", "Warnings", "FalsePos",
		strings.Repeat("-", 66))
}

// Table1Row renders one system's row of Table 1.
func Table1Row(rep *core.Report) string {
	return fmt.Sprintf("%-17s %9d %11d %7d %9d %7d",
		rep.Name, rep.LinesOfCode, rep.AnnotationLines,
		len(rep.ErrorsData), len(rep.Warnings), len(rep.ErrorsControlOnly))
}

// WriteTable1 renders the whole table.
func WriteTable1(w io.Writer, reps []*core.Report) {
	fmt.Fprintln(w, Table1Header())
	for _, rep := range reps {
		fmt.Fprintln(w, Table1Row(rep))
	}
}
