// Incremental re-analysis benchmark: open each system as a session,
// stream a script of single-function edits through Update, and compare
// the per-update latency distribution against a from-scratch analysis
// of the final edited sources. The systems are the Table 1 corpus plus
// a 50-translation-unit generated system (the generator's stage chain
// split one function per unit), which is where function-granularity
// invalidation has to pay off.

package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"safeflow/internal/corpus"
	"safeflow/internal/frontend"
	"safeflow/internal/vfg"
	"safeflow/pkg/safeflow"
)

// incrBench is one system's row in the -json "incremental" section.
type incrBench struct {
	Name             string `json:"name"`
	TranslationUnits int    `json:"translation_units"`
	// OpenNS is the cost of opening the session (a full cold analysis
	// plus the fragment baseline).
	OpenNS int64 `json:"open_ns"`
	// ColdNS is a from-scratch analysis of the final edited sources with
	// every cache empty — what each update would cost without sessions.
	ColdNS  int64 `json:"end_to_end_cold_ns"`
	Updates int   `json:"updates"`
	// Per-update latency distribution across the edit script.
	UpdateP50NS int64 `json:"update_p50_ns"`
	UpdateP95NS int64 `json:"update_p95_ns"`
	// SpeedupVsCold = ColdNS / UpdateP95NS: how much faster the p95
	// incremental update is than re-analyzing from scratch.
	SpeedupVsCold float64 `json:"speedup_vs_cold"`
	// Totals across the script: how much work invalidation scheduled and
	// how much it reused in place.
	FuncsInvalidated int `json:"funcs_invalidated_total"`
	FuncsReused      int `json:"funcs_reused_total"`
	Fallbacks        int `json:"fallbacks"`
}

// incrSubject is one system fed to the incremental benchmark.
type incrSubject struct {
	name    string
	sources map[string]string
	cFiles  []string
}

// incrSubjects returns the Table 1 corpus plus the 50-TU split system.
func incrSubjects() ([]incrSubject, error) {
	var subs []incrSubject
	for _, sys := range corpus.All() {
		src, err := sys.SourceMap()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sys.Name, err)
		}
		subs = append(subs, incrSubject{name: sys.Name, sources: src, cFiles: sys.CFiles})
	}
	name, sources, cFiles := gen50TU()
	subs = append(subs, incrSubject{name: name, sources: sources, cFiles: cFiles})
	return subs, nil
}

// gen50TU builds a 50-translation-unit system: a generated system with
// 47 stages, each stage function moved into its own .c file alongside
// init.c, monitors.c, and main.c.
func gen50TU() (string, map[string]string, []string) {
	g := corpus.Generate(42, corpus.GenConfig{Regions: 4, Monitors: 6, Stages: 47})
	sources := map[string]string{}
	for k, v := range g.Sources {
		if k != "stages.c" {
			sources[k] = v
		}
	}
	cFiles := []string{"init.c", "monitors.c"}
	body := strings.TrimPrefix(g.Sources["stages.c"], "#include \"gen.h\"\n")
	// Top-level closers sit in column zero, so "\n}\n" splits exactly at
	// function boundaries.
	for i, chunk := range strings.SplitAfter(body, "\n}\n") {
		if strings.TrimSpace(chunk) == "" {
			continue
		}
		name := fmt.Sprintf("stage%02d.c", i)
		sources[name] = "#include \"gen.h\"\n" + chunk
		cFiles = append(cFiles, name)
	}
	cFiles = append(cFiles, "main.c")
	return g.Name + "-50tu", sources, cFiles
}

// benchIncremental measures every subject.
func benchIncremental() ([]incrBench, error) {
	subs, err := incrSubjects()
	if err != nil {
		return nil, err
	}
	var rows []incrBench
	for _, sub := range subs {
		row, err := benchIncrOne(sub, 20)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sub.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// benchIncrOne opens one session and streams `updates` single-function
// edits through it, alternating a pure-comment touch (invalidates
// nothing) and a new probe function (invalidates one function), both
// appended to the first translation unit.
func benchIncrOne(sub incrSubject, updates int) (incrBench, error) {
	resetBenchCaches()
	opts := safeflow.Options{DisableCache: true, DisableParseCache: true}
	t0 := time.Now()
	sess, _, err := safeflow.OpenContext(context.Background(), sub.name, sub.sources, sub.cFiles, opts)
	if err != nil {
		return incrBench{}, err
	}
	row := incrBench{
		Name:             sub.name,
		TranslationUnits: len(sub.cFiles),
		OpenNS:           time.Since(t0).Nanoseconds(),
		Updates:          updates,
	}

	cur := map[string]string{}
	for k, v := range sub.sources {
		cur[k] = v
	}
	target := sub.cFiles[0]
	lat := make([]int64, 0, updates)
	for i := 0; i < updates; i++ {
		// Collect between edits, as the watch loop does while idle, so
		// each sample times the update itself rather than assist debt
		// left over from the previous one.
		runtime.GC()
		if i%2 == 0 {
			cur[target] += fmt.Sprintf("\n/* bench touch %d */\n", i)
		} else {
			cur[target] += fmt.Sprintf("\ndouble __benchProbe%d(double x)\n{\n    return x + %d.0;\n}\n", i, i)
		}
		t0 := time.Now()
		_, stats, err := sess.UpdateContext(context.Background(), map[string]string{target: cur[target]})
		lat = append(lat, time.Since(t0).Nanoseconds())
		if err != nil {
			return incrBench{}, fmt.Errorf("update %d: %w", i, err)
		}
		row.FuncsInvalidated += stats.FuncsInvalidated
		row.FuncsReused += stats.FuncsReused
		if !stats.Incremental {
			row.Fallbacks++
		}
	}

	resetBenchCaches()
	t0 = time.Now()
	if _, err := safeflow.AnalyzeContext(context.Background(), sub.name, cur, sub.cFiles, opts); err != nil {
		return incrBench{}, fmt.Errorf("cold baseline: %w", err)
	}
	row.ColdNS = time.Since(t0).Nanoseconds()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	row.UpdateP50NS = pct(lat, 0.50)
	row.UpdateP95NS = pct(lat, 0.95)
	if row.UpdateP95NS > 0 {
		row.SpeedupVsCold = float64(row.ColdNS) / float64(row.UpdateP95NS)
	}
	return row, nil
}

// pct reads percentile p (0..1) from an ascending-sorted sample.
func pct(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func resetBenchCaches() {
	frontend.ResetParseCache()
	vfg.ResetStateStore()
}

// runIncrSmoke is the CI gate: a quick incremental benchmark on a
// moderate generated system that must show updates strictly cheaper
// than from-scratch analysis — p95 update ≥ cold end-to-end fails.
func runIncrSmoke(w io.Writer) int {
	g := corpus.Generate(7, corpus.GenConfig{Regions: 3, Monitors: 4, Stages: 8})
	row, err := benchIncrOne(incrSubject{name: g.Name, sources: g.Sources, cFiles: g.CFiles}, 10)
	if err != nil {
		fmt.Fprintf(w, "incr-smoke: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "incr-smoke: %s (%d TUs): open=%.1fms cold=%.1fms p50=%.1fms p95=%.1fms speedup=%.1fx invalidated=%d reused=%d fallbacks=%d\n",
		row.Name, row.TranslationUnits,
		float64(row.OpenNS)/1e6, float64(row.ColdNS)/1e6,
		float64(row.UpdateP50NS)/1e6, float64(row.UpdateP95NS)/1e6,
		row.SpeedupVsCold, row.FuncsInvalidated, row.FuncsReused, row.Fallbacks)
	if row.Fallbacks > 0 {
		fmt.Fprintf(w, "incr-smoke: FAIL: %d updates fell back to from-scratch analysis\n", row.Fallbacks)
		return 1
	}
	if row.UpdateP95NS >= row.ColdNS {
		fmt.Fprintf(w, "incr-smoke: FAIL: p95 update (%.1fms) is not cheaper than a cold run (%.1fms)\n",
			float64(row.UpdateP95NS)/1e6, float64(row.ColdNS)/1e6)
		return 1
	}
	fmt.Fprintln(w, "incr-smoke: PASS")
	return 0
}
