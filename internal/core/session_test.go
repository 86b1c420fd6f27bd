package core_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/report"
)

// renderAll renders the forms whose byte-identity the incremental
// analysis guarantees: the standard text report plus the JSON report
// with execution-dependent metrics canonicalized away.
func renderAll(t *testing.T, rep *core.Report) string {
	t.Helper()
	var buf bytes.Buffer
	report.Write(&buf, rep)
	rep.Metrics.Canonicalize()
	if err := report.WriteJSON(&buf, rep); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.String()
}

// fresh runs the from-scratch pipeline the session must reproduce.
func fresh(t *testing.T, name string, sources map[string]string, cFiles []string, opts core.Options) *core.Report {
	t.Helper()
	rep, err := core.AnalyzeSources(context.Background(), name, cpp.MapSource(sources), cFiles, opts)
	if err != nil {
		t.Fatalf("fresh analyze: %v", err)
	}
	return rep
}

func sessionWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// TestSessionGeneratedLifecycle drives a seeded edit script through a
// session at several worker counts and checks every patched report is
// byte-identical to a from-scratch analysis of the edited sources.
func TestSessionGeneratedLifecycle(t *testing.T) {
	g := corpus.Generate(7, corpus.GenConfig{Regions: 3, Monitors: 4, Stages: 5})
	script := corpus.GenerateEdits(g, 11, 8)
	if len(script) < 4 {
		t.Fatalf("edit script too short: %d", len(script))
	}
	for _, w := range sessionWorkerCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			opts := core.Options{Workers: w, Stats: true}
			s, rep, err := core.OpenSession(context.Background(), g.Name, g.Sources, g.CFiles, opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			cur := map[string]string{}
			for k, v := range g.Sources {
				cur[k] = v
			}
			want := renderAll(t, fresh(t, g.Name, cur, g.CFiles, opts))
			if got := renderAll(t, rep); got != want {
				t.Fatalf("open report differs from fresh analysis:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			for i, e := range script {
				text, ok := e.Apply(cur)
				if !ok {
					t.Fatalf("edit %d (%s) does not anchor", i, e.Desc)
				}
				cur[e.File] = text
				rep, stats, err := s.Update(context.Background(), map[string]string{e.File: text})
				if err != nil {
					t.Fatalf("update %d (%s): %v", i, e.Desc, err)
				}
				want := renderAll(t, fresh(t, g.Name, cur, g.CFiles, opts))
				if got := renderAll(t, rep); got != want {
					t.Fatalf("update %d (%s): report differs from fresh analysis\n--- got ---\n%s\n--- want ---\n%s",
						i, e.Desc, got, want)
				}
				if !stats.Incremental {
					t.Errorf("update %d (%s): fell back to from-scratch analysis", i, e.Desc)
				}
				switch e.Kind {
				case corpus.EditNoop, corpus.EditBodyTweak:
					if stats.Incremental && stats.FuncsReused == 0 {
						t.Errorf("update %d (%s): local edit reused no functions (invalidated=%d)",
							i, e.Desc, stats.FuncsInvalidated)
					}
				}
			}
		})
	}
}

// TestSessionCorpusSystems opens each embedded Table 1 system and checks
// a local edit patches to the exact from-scratch report.
func TestSessionCorpusSystems(t *testing.T) {
	edits := map[string][2]string{
		"IP":              {"estimator.c", "SPIKE_LIMIT   0.35"},
		"Generic Simplex": {"plantlib.c", ""},
		"Double IP":       {"control.c", ""},
	}
	for _, sys := range corpus.All() {
		t.Run(sys.Name, func(t *testing.T) {
			sources, err := sys.SourceMap()
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Workers: 2, Stats: true}
			s, _, err := core.OpenSession(context.Background(), sys.Name, sources, sys.CFiles, opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			// A trailing comment: preprocessed text changes, no function
			// moves, so nothing should be invalidated.
			file := edits[sys.Name][0]
			edited := sources[file] + "\n/* session touch */\n"
			sources[file] = edited
			rep, stats, err := s.Update(context.Background(), map[string]string{file: edited})
			if err != nil {
				t.Fatalf("update: %v", err)
			}
			want := renderAll(t, fresh(t, sys.Name, sources, sys.CFiles, opts))
			if got := renderAll(t, rep); got != want {
				t.Fatalf("no-op update: report differs from fresh analysis")
			}
			if stats.Incremental && stats.FuncsInvalidated != 0 {
				t.Errorf("no-op edit invalidated %d functions", stats.FuncsInvalidated)
			}
			if stats.Incremental && stats.FuncsReused == 0 {
				t.Errorf("no-op edit reused no functions")
			}
			// A real local edit, when the system has one registered.
			if anchor := edits[sys.Name][1]; anchor != "" && strings.Contains(sources[file], anchor) {
				edited = strings.Replace(sources[file], anchor, "SPIKE_LIMIT   0.40", 1)
				sources[file] = edited
				rep, stats, err = s.Update(context.Background(), map[string]string{file: edited})
				if err != nil {
					t.Fatalf("edit update: %v", err)
				}
				want = renderAll(t, fresh(t, sys.Name, sources, sys.CFiles, opts))
				if got := renderAll(t, rep); got != want {
					t.Fatalf("local edit: report differs from fresh analysis")
				}
				if stats.Incremental && stats.FuncsReused == 0 {
					t.Errorf("local edit reused no functions")
				}
			}
		})
	}
}

// TestSessionDegradedThenFixed introduces a parse error (degraded run
// under Recover), then fixes it, checking the session matches the
// from-scratch report at every step and recovers its fast path.
func TestSessionDegradedThenFixed(t *testing.T) {
	g := corpus.Generate(3, corpus.GenConfig{})
	opts := core.Options{Workers: 2, Stats: true, Recover: true}
	s, _, err := core.OpenSession(context.Background(), g.Name, g.Sources, g.CFiles, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cur := map[string]string{}
	for k, v := range g.Sources {
		cur[k] = v
	}
	good := cur["stages.c"]

	broken := good + "\ndouble brokenFn(double x) { return x + ; }\n"
	cur["stages.c"] = broken
	rep, _, err := s.Update(context.Background(), map[string]string{"stages.c": broken})
	if err != nil {
		t.Fatalf("degraded update: %v", err)
	}
	if !rep.Degraded {
		t.Fatalf("expected a degraded report after breaking stages.c")
	}
	want := renderAll(t, fresh(t, g.Name, cur, g.CFiles, opts))
	if got := renderAll(t, rep); got != want {
		t.Fatalf("degraded report differs from fresh analysis\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	cur["stages.c"] = good
	rep, stats, err := s.Update(context.Background(), map[string]string{"stages.c": good})
	if err != nil {
		t.Fatalf("fixed update: %v", err)
	}
	if rep.Degraded {
		t.Fatalf("report still degraded after the fix")
	}
	want = renderAll(t, fresh(t, g.Name, cur, g.CFiles, opts))
	if got := renderAll(t, rep); got != want {
		t.Fatalf("fixed report differs from fresh analysis")
	}
	if !stats.Incremental {
		t.Errorf("session did not recover its incremental fast path after the fix")
	}
}

// TestSessionAddRemoveFile adds a new translation unit, then removes it,
// comparing against from-scratch runs with the same unit list.
func TestSessionAddRemoveFile(t *testing.T) {
	g := corpus.Generate(5, corpus.GenConfig{})
	opts := core.Options{Workers: 2, Stats: true}
	s, _, err := core.OpenSession(context.Background(), g.Name, g.Sources, g.CFiles, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cur := map[string]string{}
	for k, v := range g.Sources {
		cur[k] = v
	}

	extra := "#include \"gen.h\"\n\ndouble extraStage(double x)\n{\n    return monitor0(x) + 1.0;\n}\n"
	cur["extra.c"] = extra
	rep, _, err := s.Update(context.Background(), map[string]string{"extra.c": extra})
	if err != nil {
		t.Fatalf("add update: %v", err)
	}
	wantFiles := append(append([]string(nil), g.CFiles...), "extra.c")
	want := renderAll(t, fresh(t, g.Name, cur, wantFiles, opts))
	if got := renderAll(t, rep); got != want {
		t.Fatalf("report after adding extra.c differs from fresh analysis\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	delete(cur, "extra.c")
	rep, _, err = s.Update(context.Background(), nil, "extra.c")
	if err != nil {
		t.Fatalf("remove update: %v", err)
	}
	want = renderAll(t, fresh(t, g.Name, cur, g.CFiles, opts))
	if got := renderAll(t, rep); got != want {
		t.Fatalf("report after removing extra.c differs from fresh analysis")
	}
}

// Opening a session compiles the system once: on a new cache the open
// report counts one parse-cache miss per unit and no hits (a second
// compile of the same units would be all hits).
func TestSessionOpenCompilesOnce(t *testing.T) {
	g := corpus.Split(corpus.Generate(1, corpus.MaxShape))
	opts := core.Options{Workers: 1, Stats: true, Cache: core.NewCache()}
	s, rep, err := core.OpenSession(context.Background(), g.Name, g.Sources, g.CFiles, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	m := rep.Metrics
	if m == nil {
		t.Fatal("open report has no metrics")
	}
	if m.FrontendCacheMisses != 130 || m.FrontendCacheHits != 0 {
		t.Errorf("open report: frontend cache hits/misses = %d/%d, want 0/130",
			m.FrontendCacheHits, m.FrontendCacheMisses)
	}
}
