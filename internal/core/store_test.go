package core_test

import (
	"strings"
	"sync"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/pointsto"
	"safeflow/internal/policy"
	"safeflow/internal/vfg"
)

// A plain analysis replays the last converged phase-3 state of the same
// system name and options when that state was computed from the same
// sources. These oracles check that the state never changes a report:
// whatever the store holds, the report is the one a cold (DisableCache)
// analysis of the same sources renders. Where a test needs a run to
// replay another program's state, core.PlantState re-tags it.

func split130(seed int64) corpus.Generated {
	return corpus.Split(corpus.Generate(seed, corpus.MaxShape))
}

// editedSplit130 is split130(seed) after a seeded six-edit script.
func editedSplit130(t *testing.T, seed int64) corpus.Generated {
	t.Helper()
	g := corpus.Generate(seed, corpus.MaxShape)
	script := corpus.GenerateEdits(g, seed, 6)
	src, ok := script.ApplyAll(g.Sources)
	if !ok || len(script) == 0 {
		t.Fatalf("seed %d: edit script did not apply", seed)
	}
	g.Sources = src
	return corpus.Split(g)
}

// coldRender is the reference: the rendered report of a DisableCache run.
func coldRender(t *testing.T, name string, g corpus.Generated, opts core.Options) string {
	t.Helper()
	opts.DisableCache = true
	return renderAll(t, fresh(t, name, g.Sources, g.CFiles, opts))
}

// TestStoreDifferentProgramSameKey analyzes program A, then program B
// under the same name and options. B's sources differ, so B replays
// nothing. Then A's state is planted under B's sources: B replays
// whatever of it the fingerprints allow, and its report must be
// byte-identical to a cold analysis of B, since the fingerprints and
// verification alone carry correctness. B is another split seed, or A
// after a seeded edit script.
func TestStoreDifferentProgramSameKey(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)
	for _, tc := range []struct {
		name string
		a, b corpus.Generated
	}{
		{"split1-then-split2", split130(1), split130(2)},
		{"split2-then-split3", split130(2), split130(3)},
		{"split3-then-split1", split130(3), split130(1)},
		{"split1-then-edited", split130(1), editedSplit130(t, 1)},
		{"split2-then-edited", split130(2), editedSplit130(t, 2)},
	} {
		opts := core.Options{Stats: true}
		want := coldRender(t, "N", tc.b, opts)
		fresh(t, "N", tc.a.Sources, tc.a.CFiles, opts)
		rep := fresh(t, "N", tc.b.Sources, tc.b.CFiles, opts)
		if rep.Metrics.CacheHits != 0 {
			t.Errorf("%s: replayed %d units of a state computed from other sources", tc.name, rep.Metrics.CacheHits)
		}
		if renderAll(t, rep) != want {
			t.Errorf("%s: report after a different program's run differs from a cold run", tc.name)
		}

		fresh(t, "N", tc.a.Sources, tc.a.CFiles, opts)
		if !core.PlantState("N", opts, tc.a.Sources, tc.b.Sources, tc.a.CFiles, tc.b.CFiles) {
			t.Fatalf("%s: program A stored no state", tc.name)
		}
		rep = fresh(t, "N", tc.b.Sources, tc.b.CFiles, opts)
		replayed := rep.Metrics.CacheHits
		if renderAll(t, rep) != want {
			t.Errorf("%s: report after replaying a different program's state differs from a cold run", tc.name)
		}
		if strings.Contains(tc.name, "edited") && replayed == 0 {
			t.Errorf("%s: replayed no unit of the unedited program's state", tc.name)
		}
		t.Logf("%s: %d units replayed from the other program's state", tc.name, replayed)
	}
}

// TestStoreChangedSourcesSolveCold appends a comment to every C file,
// which changes no function and no report: the run over the changed
// sources replays nothing and renders the same report, its repeat
// replays every unit, and the original sources, whose state it
// replaced, solve cold again.
func TestStoreChangedSourcesSolveCold(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)
	g := split130(1)
	opts := core.Options{Stats: true}
	want := renderAll(t, fresh(t, g.Name, g.Sources, g.CFiles, opts))

	commented := corpus.Generated{Name: g.Name, CFiles: g.CFiles, Sources: make(map[string]string, len(g.Sources))}
	for k, v := range g.Sources {
		commented.Sources[k] = v
	}
	for _, cf := range g.CFiles {
		// On the last line, so line counts and the report stay the same.
		text := strings.TrimSuffix(g.Sources[cf], "\n")
		commented.Sources[cf] = text + " /* changed */\n"
	}
	for i, tc := range []struct {
		g        corpus.Generated
		replayed bool
	}{{commented, false}, {commented, true}, {g, false}} {
		rep := fresh(t, g.Name, tc.g.Sources, tc.g.CFiles, opts)
		hits, misses := 0, 129
		if tc.replayed {
			hits, misses = misses, hits
		}
		if m := rep.Metrics; m.CacheHits != hits || m.CacheMisses != misses {
			t.Errorf("run %d: replayed %d units and solved %d, want %d and %d", i, m.CacheHits, m.CacheMisses, hits, misses)
		}
		if renderAll(t, rep) != want {
			t.Errorf("run %d: report differs from the first run's", i)
		}
	}
	if n := len(vfg.StateStoreKeys()); n != 1 {
		t.Errorf("store holds %d states, want one slot for the system", n)
	}
}

// TestStoreNoSharingAcrossOptions changes one keyed option at a time
// under the same system name: no run may replay a state another option
// set left, and each report equals its cold reference.
func TestStoreNoSharingAcrossOptions(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)
	cs := corpus.IP()
	src, err := cs.SourceMap()
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.Generated{Name: cs.Name, Sources: src, CFiles: cs.CFiles}
	cred, ok := policy.Builtin("credential-leak")
	if !ok {
		t.Fatal("credential-leak policy missing")
	}
	variants := []core.Options{
		{Stats: true},
		{Stats: true, Policy: cred},
		{Stats: true, Roots: []string{"main"}},
		{Stats: true, PointsTo: pointsto.ModeUnify},
	}
	for i, opts := range variants {
		rep := fresh(t, g.Name, g.Sources, g.CFiles, opts)
		if rep.Metrics.CacheHits != 0 {
			t.Errorf("variant %d: replayed %d units from another option set's state", i, rep.Metrics.CacheHits)
		}
		if got, want := renderAll(t, rep), coldRender(t, g.Name, g, opts); got != want {
			t.Errorf("variant %d: report differs from a cold run", i)
		}
	}
	if n := len(vfg.StateStoreKeys()); n != len(variants) {
		t.Errorf("store holds %d states, want one per option set (%d)", n, len(variants))
	}
	// Each option set finds its own state again.
	for i, opts := range variants {
		if rep := fresh(t, g.Name, g.Sources, g.CFiles, opts); rep.Metrics.CacheMisses != 0 {
			t.Errorf("variant %d: repeat solved %d units, want every unit replayed", i, rep.Metrics.CacheMisses)
		}
	}
}

// TestStoreRegionChangeSolvesFromEmpty changes the shape of every
// shared-memory region and plants the unchanged program's state under
// the changed sources: nothing of it may be replayed.
func TestStoreRegionChangeSolvesFromEmpty(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)
	g := split130(1)
	opts := core.Options{Stats: true}
	fresh(t, g.Name, g.Sources, g.CFiles, opts)

	const field = "int flag; int pad; }"
	if !strings.Contains(g.Sources["gen.h"], field) {
		t.Fatal("gen.h lost the GenRegion layout this test edits")
	}
	wider := corpus.Generated{Name: g.Name, CFiles: g.CFiles, Sources: make(map[string]string, len(g.Sources))}
	for k, v := range g.Sources {
		wider.Sources[k] = v
	}
	wider.Sources["gen.h"] = strings.Replace(g.Sources["gen.h"], field, "int flag; int pad; double extra; }", 1)
	if !core.PlantState(g.Name, opts, g.Sources, wider.Sources, g.CFiles, wider.CFiles) {
		t.Fatal("the unchanged program stored no state")
	}
	rep := fresh(t, g.Name, wider.Sources, wider.CFiles, opts)
	if m := rep.Metrics; m.CacheHits != 0 || m.IncrFuncsReused != 0 {
		t.Errorf("region change replayed %d units and reused %d functions, want none", m.CacheHits, m.IncrFuncsReused)
	}
	if got, want := renderAll(t, rep), coldRender(t, g.Name, wider, opts); got != want {
		t.Error("report after a region change differs from a cold run")
	}
}

// TestStoreCorruptionSelfHeals damages the stored state: the next run
// must evict it, count the eviction, solve from empty state with an
// unchanged report, and store a good state again.
func TestStoreCorruptionSelfHeals(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)
	g := split130(2)
	opts := core.Options{Stats: true}
	want := coldRender(t, g.Name, g, opts)
	fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if n := vfg.CorruptStateStore(1); n != 1 {
		t.Fatalf("corrupted %d states, want 1", n)
	}
	rep := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	m := *rep.Metrics
	if m.CacheCorruptEvictions != 1 || m.CacheHits != 0 || m.CacheMisses == 0 {
		t.Errorf("damaged state: corrupt evictions %d, hits %d, misses %d; want 1, 0, > 0",
			m.CacheCorruptEvictions, m.CacheHits, m.CacheMisses)
	}
	if renderAll(t, rep) != want {
		t.Error("report changed after the stored state was damaged")
	}
	rep = fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if m := rep.Metrics; m.CacheCorruptEvictions != 0 || m.CacheMisses != 0 {
		t.Errorf("healed store: corrupt evictions %d, misses %d; want 0, 0", m.CacheCorruptEvictions, m.CacheMisses)
	}
	if renderAll(t, rep) != want {
		t.Error("report changed after the store healed")
	}
}

// TestStoreConcurrentReplay has four goroutines analyze one system from
// the same shared state (run it under -race): a stored state is read-only
// once captured, and every report equals the cold reference.
func TestStoreConcurrentReplay(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)
	g := split130(1)
	want := coldRender(t, g.Name, g, core.Options{})
	fresh(t, g.Name, g.Sources, g.CFiles, core.Options{})

	const goroutines = 4
	got := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Workers: 1 + i%2})
			got[i] = renderAll(t, rep)
		}(i)
	}
	wg.Wait()
	for i, r := range got {
		if r != want {
			t.Errorf("goroutine %d: report differs from a cold run", i)
		}
	}
}

// TestStoreReplayCounts pins what a repeat analysis does: the first run
// of split 130-TU seed 1 solves all 129 units from empty state, and a
// memory-warm repeat solves none, replays all 129 and restarts 0 times.
func TestStoreReplayCounts(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)
	g := split130(1)
	opts := core.Options{Workers: 1, Stats: true}
	first := fresh(t, g.Name, g.Sources, g.CFiles, opts).Metrics
	if first.CacheHits != 0 || first.CacheMisses != 129 || first.UnitsSolved != 129 {
		t.Errorf("first run: replayed %d, solved %d (%d solves); want 0, 129 (129)",
			first.CacheHits, first.CacheMisses, first.UnitsSolved)
	}
	repeat := fresh(t, g.Name, g.Sources, g.CFiles, opts).Metrics
	if repeat.CacheHits != 129 || repeat.CacheMisses != 0 || repeat.UnitsSolved != 0 || repeat.IncrRestarts != 0 {
		t.Errorf("repeat: replayed %d, solved %d (%d solves), %d restarts; want 129, 0 (0), 0",
			repeat.CacheHits, repeat.CacheMisses, repeat.UnitsSolved, repeat.IncrRestarts)
	}
}
