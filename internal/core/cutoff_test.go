package core_test

import (
	"context"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
)

// TestSessionEarlyCutoff edits one monitor of the split 130-unit system
// two ways. An edit that keeps the monitor's summary re-solves only the
// monitor's unit and replays its callers by early cutoff; an edit that
// changes the summary re-solves its direct callers too. Both patched
// reports must be byte-identical to a from-scratch analysis. Monitors
// are entered under one context (their callers assume no core facts), so
// the monitor has exactly one unit.
func TestSessionEarlyCutoff(t *testing.T) {
	g := corpus.Split(corpus.Generate(1, corpus.MaxShape))
	const unit, fn = "monitor009.c", "monitor9("
	callers := 0
	for _, cf := range g.CFiles {
		if cf != unit && strings.Contains(g.Sources[cf], fn) {
			callers++
		}
	}
	if callers == 0 {
		t.Fatalf("%s has no callers", fn)
	}
	orig := g.Sources[unit]
	if !strings.Contains(orig, "return t + x;") {
		t.Fatalf("%s: return statement not found", unit)
	}
	for _, w := range sessionWorkerCounts() {
		opts := core.Options{Workers: w, Stats: true}
		s, _, err := core.OpenSession(context.Background(), g.Name, g.Sources, g.CFiles, opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		cur := map[string]string{}
		for k, v := range g.Sources {
			cur[k] = v
		}
		update := func(what, text string) core.UpdateStats {
			t.Helper()
			cur[unit] = text
			rep, stats, err := s.Update(context.Background(), map[string]string{unit: text})
			if err != nil {
				t.Fatalf("workers=%d %s: %v", w, what, err)
			}
			if got, want := renderAll(t, rep), renderAll(t, fresh(t, g.Name, cur, g.CFiles, opts)); got != want {
				t.Fatalf("workers=%d %s: report differs from fresh analysis\n--- got ---\n%s\n--- want ---\n%s", w, what, got, want)
			}
			if !stats.Incremental || stats.Restarts != 0 {
				t.Errorf("workers=%d %s: incremental=%v restarts=%d, want true and 0", w, what, stats.Incremental, stats.Restarts)
			}
			t.Logf("workers=%d %s: %+v", w, what, stats)
			return stats
		}

		// A constant added to the return never reaches taint.
		st := update("constant edit", strings.Replace(orig, "return t + x;", "return t + x + 2.0;", 1))
		if st.UnitsCutOff == 0 || st.UnitsSolved != 1 {
			t.Errorf("workers=%d constant edit: cut off %d, solved %d; want > 0 and 1", w, st.UnitsCutOff, st.UnitsSolved)
		}
		update("revert constant edit", orig)

		// The return now depends on an unmonitored non-core read (the
		// monitor assumes only reg9 core), so every caller re-solves.
		st = update("taint edit", strings.Replace(orig, "return t + x;", "return t + x + reg10->a;", 1))
		if st.UnitsSolved < 1+callers {
			t.Errorf("workers=%d taint edit: solved %d, want >= %d (the monitor and its %d direct callers)", w, st.UnitsSolved, 1+callers, callers)
		}
		update("revert taint edit", orig)
	}
}
