package core_test

// Acceptance tests for graceful degradation at the pipeline level: a
// deliberately broken translation unit yields a degraded report (not an
// error), calls into its definitions taint conservatively, and the
// degraded report is byte-identical at every worker count.

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/diag"
	"safeflow/internal/report"
)

// A call into a function whose defining unit was skipped must be treated
// as an unknown-taint source: the assert depending on it is reported
// even though nothing observable in the surviving units taints it.
func TestRecoverConservativeMissingDefTaint(t *testing.T) {
	sources := map[string]string{
		"helper.c": "double getval() { return 0.5; }\nint oops( {\n", // parse error: unit skipped
		"main.c": `
double getval();
int main()
{
	double u;
	u = getval();
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`,
	}
	rep, err := core.AnalyzeSources(context.Background(), "missing-def", cpp.MapSource(sources), []string{"helper.c", "main.c"}, core.Options{Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("report not degraded")
	}
	if len(rep.ErrorsData) == 0 {
		var sb strings.Builder
		report.Write(&sb, rep)
		t.Fatalf("assert fed by a skipped definition not reported:\n%s", sb.String())
	}
	var sb strings.Builder
	report.Write(&sb, rep)
	text := sb.String()
	if !strings.Contains(text, "whose defining unit was skipped") {
		t.Errorf("witness does not name the skipped definition:\n%s", text)
	}
	if !strings.Contains(text, "analysis DEGRADED") {
		t.Errorf("text report missing the degraded verdict line:\n%s", text)
	}

	// The same system in strict mode fails outright.
	if _, err := core.AnalyzeSources(context.Background(), "missing-def", cpp.MapSource(sources), []string{"helper.c", "main.c"}, core.Options{}); err == nil {
		t.Error("strict mode accepted the broken unit")
	}
}

// A degraded report never claims Clean, even when the surviving units
// alone have nothing to flag.
func TestRecoverDegradedNeverClean(t *testing.T) {
	sources := map[string]string{
		"broken.c": "int bad( {\n",
		"main.c":   "int main() { return 0; }\n",
	}
	rep, err := core.AnalyzeSources(context.Background(), "degraded-clean", cpp.MapSource(sources), []string{"broken.c", "main.c"}, core.Options{Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings)+rep.TotalErrors()+len(rep.Violations) != 0 {
		t.Fatalf("surviving unit flagged unexpectedly")
	}
	if rep.Clean() {
		t.Error("degraded report claims Clean")
	}
}

// The ISSUE acceptance scenario: a real corpus system with one broken
// translation unit still produces verdicts for the surviving units, and
// the degraded report is byte-identical at workers 1, 2, GOMAXPROCS.
func TestCorpusBrokenUnitDegradedDeterministic(t *testing.T) {
	sys := corpus.IP()
	src, err := sys.SourceMap()
	if err != nil {
		t.Fatal(err)
	}
	src["control.c"] += "\nint __broken( {\n"

	var firstText, firstJSON string
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		rep, err := core.AnalyzeSources(context.Background(), sys.Name, cpp.MapSource(src), sys.CFiles, core.Options{Recover: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: analysis failed outright: %v", workers, err)
		}
		if !rep.Degraded {
			t.Fatalf("workers=%d: not degraded", workers)
		}
		units := diag.Units(rep.Diagnostics)
		if len(units) != 1 || units[0] != "control.c" {
			t.Fatalf("workers=%d: diagnostic units = %v, want [control.c]", workers, units)
		}
		// The unaffected units' verdicts survive: init.c's regions and
		// the unmonitored accesses outside control.c are still reported.
		if len(rep.Regions) == 0 || len(rep.Warnings) == 0 {
			t.Fatalf("workers=%d: surviving verdicts missing (regions=%d warnings=%d)",
				workers, len(rep.Regions), len(rep.Warnings))
		}
		var text, js strings.Builder
		report.Write(&text, rep)
		if err := report.WriteJSON(&js, rep); err != nil {
			t.Fatal(err)
		}
		if firstText == "" {
			firstText, firstJSON = text.String(), js.String()
			continue
		}
		if text.String() != firstText {
			t.Errorf("workers=%d: text report differs from workers=1", workers)
		}
		if js.String() != firstJSON {
			t.Errorf("workers=%d: JSON report differs from workers=1", workers)
		}
	}
	if !strings.Contains(firstText, "Degraded analysis") {
		t.Errorf("degraded section missing:\n%s", firstText)
	}
}
