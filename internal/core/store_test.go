package core_test

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"weak"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/frontend"
	"safeflow/internal/pointsto"
	"safeflow/internal/policy"
)

// A plain analysis through a Cache takes the stored verdict of the same
// system name and options when that verdict was computed from the same
// module key, and otherwise runs phase 3 untracked and stores its own.
// These oracles check that the state tier never changes a report:
// whatever a Cache holds, the report is the one a cold (nil Cache)
// analysis of the same sources renders. Each test owns the Cache it
// uses. Where a test needs a run to find another program's verdict
// under its own tag, core.PlantState re-tags it.

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

// coldRender is the reference: the rendered report of a run with no Cache.
func coldRender(t *testing.T, name string, g corpus.Generated, opts core.Options) string {
	t.Helper()
	opts.Cache = nil
	return renderAll(t, fresh(t, name, g.Sources, g.CFiles, opts))
}

// TestStoreDifferentProgramSameKey analyzes program A, then program B
// under the same name and options. B's sources differ, so B takes
// nothing of A's verdict. Then A's verdict is planted under B's tag, as
// a collision of the 64-bit fold would: the entry still carries A's full
// module key, so B must not take it, and its report must be
// byte-identical to a cold analysis of B. B is another split seed, or A
// after a seeded edit script.
func TestStoreDifferentProgramSameKey(t *testing.T) {
	c := core.NewCache()
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
		opts := core.Options{Stats: true, Cache: c}
		want := coldRender(t, "N", tc.b, opts)
		fresh(t, "N", tc.a.Sources, tc.a.CFiles, opts)
		rep := fresh(t, "N", tc.b.Sources, tc.b.CFiles, opts)
		if rep.Metrics.CacheHits != 0 {
			t.Errorf("%s: took a verdict of %d units computed from other sources", tc.name, rep.Metrics.CacheHits)
		}
		if renderAll(t, rep) != want {
			t.Errorf("%s: report after a different program's run differs from a cold run", tc.name)
		}

		fresh(t, "N", tc.a.Sources, tc.a.CFiles, opts)
		if !core.PlantState("N", opts, tc.a.Sources, tc.b.Sources, tc.a.CFiles, tc.b.CFiles) {
			t.Fatalf("%s: program A stored no verdict", tc.name)
		}
		rep = fresh(t, "N", tc.b.Sources, tc.b.CFiles, opts)
		if m := rep.Metrics; m.CacheHits != 0 || m.CacheMisses == 0 {
			t.Errorf("%s: planted verdict: hits %d, misses %d; want 0 and the units B solved", tc.name, m.CacheHits, m.CacheMisses)
		}
		if renderAll(t, rep) != want {
			t.Errorf("%s: report after a different program's verdict was planted differs from a cold run", tc.name)
		}
	}
}

// TestStoreChangedSourcesSolveCold appends a comment to every C file,
// which changes no function and no report: the run over the changed
// sources solves every unit, untracked, and renders the same report, its
// repeat takes the stored verdict, and the original sources, whose
// verdict it replaced, solve cold again. A comment added to a
// declaration of gen.h, which every unit reads, takes nothing either; an
// edit to dbg.h, which one unit includes only under a macro no one
// defines, changes no text the preprocessor read, so the run after it
// takes the verdict and shares the module of the run before.
func TestStoreChangedSourcesSolveCold(t *testing.T) {
	c := core.NewCache()
	g := split130(1)
	g.Sources = withSource(g.Sources, g.CFiles[0], g.Sources[g.CFiles[0]]+"#ifdef SF_UNDEFINED_DEBUG\n#include \"dbg.h\"\n#endif\n")
	g.Sources["dbg.h"] = "int dbg_level;\n"
	opts := core.Options{Stats: true, Cache: c}
	last := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	want := renderAll(t, last)

	commented := corpus.Generated{Name: g.Name, CFiles: g.CFiles, Sources: g.Sources}
	for _, cf := range g.CFiles {
		// On the last line, so line counts and the report stay the same.
		commented.Sources = withSource(commented.Sources, cf, strings.TrimSuffix(g.Sources[cf], "\n")+" /* changed */\n")
	}
	// On a declaration: a comment after the closing #endif is no text
	// the preprocessor emits.
	const decl = "double stage63(double x);\n"
	if !strings.Contains(g.Sources["gen.h"], decl) {
		t.Fatal("gen.h lost the declaration this test comments")
	}
	headerCommented := corpus.Generated{Name: g.Name, CFiles: g.CFiles,
		Sources: withSource(g.Sources, "gen.h", strings.Replace(g.Sources["gen.h"], decl, "double stage63(double x); /* changed */\n", 1))}
	unreadEdited := corpus.Generated{Name: g.Name, CFiles: g.CFiles,
		Sources: withSource(g.Sources, "dbg.h", "int dbg_level;\nint dbg_mask;\n")}
	for i, tc := range []struct {
		g   corpus.Generated
		hit bool
	}{{commented, false}, {commented, true}, {g, false}, {unreadEdited, true}, {headerCommented, false}, {g, false}} {
		rep := fresh(t, g.Name, tc.g.Sources, tc.g.CFiles, opts)
		hits, misses := 0, 129
		if tc.hit {
			hits, misses = misses, hits
		}
		m := rep.Metrics
		if m.CacheHits != hits || m.CacheMisses != misses {
			t.Errorf("run %d: verdict of %d units taken, %d units solved; want %d and %d", i, m.CacheHits, m.CacheMisses, hits, misses)
		}
		if m.IncrFuncsInvalidated+m.IncrFuncsReused+m.IncrUnitsReplayed+m.IncrRestarts != 0 {
			t.Errorf("run %d: tracked (incremental counters %d/%d/%d/%d)", i,
				m.IncrFuncsInvalidated, m.IncrFuncsReused, m.IncrUnitsReplayed, m.IncrRestarts)
		}
		// The module tier holds one module this size: a run that takes
		// the verdict shares the previous run's module, and one that does
		// not compiled its own.
		if shared := rep.Module == last.Module; shared != tc.hit {
			t.Errorf("run %d: shares the previous run's module = %v, want %v", i, shared, tc.hit)
		}
		if renderAll(t, rep) != want {
			t.Errorf("run %d: report differs from the first run's", i)
		}
		last = rep
	}
	if n := c.State.Len(); n != 1 {
		t.Errorf("store holds %d verdicts, want one slot for the system", n)
	}
}

// withSource returns a copy of sources with file's text replaced.
func withSource(sources map[string]string, file, text string) map[string]string {
	out := make(map[string]string, len(sources)+1)
	for k, v := range sources {
		out[k] = v
	}
	out[file] = text
	return out
}

// TestStoreNoSharingAcrossOptions changes one keyed option at a time
// under the same system name: no run may take a verdict another option
// set left, and each report equals its cold reference.
func TestStoreNoSharingAcrossOptions(t *testing.T) {
	c := core.NewCache()
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
		{Stats: true, Cache: c},
		{Stats: true, Cache: c, Policy: cred},
		{Stats: true, Cache: c, Roots: []string{"main"}},
		{Stats: true, Cache: c, PointsTo: pointsto.ModeUnify},
	}
	for i, opts := range variants {
		rep := fresh(t, g.Name, g.Sources, g.CFiles, opts)
		if rep.Metrics.CacheHits != 0 {
			t.Errorf("variant %d: took another option set's verdict of %d units", i, rep.Metrics.CacheHits)
		}
		if got, want := renderAll(t, rep), coldRender(t, g.Name, g, opts); got != want {
			t.Errorf("variant %d: report differs from a cold run", i)
		}
	}
	if n := c.State.Len(); n != len(variants) {
		t.Errorf("store holds %d verdicts, want one per option set (%d)", n, len(variants))
	}
	// Each option set finds its own verdict again.
	for i, opts := range variants {
		rep := fresh(t, g.Name, g.Sources, g.CFiles, opts)
		if m := rep.Metrics; m.CacheMisses != 0 || m.CacheHits == 0 {
			t.Errorf("variant %d: repeat solved %d units and took %d, want the verdict taken", i, m.CacheMisses, m.CacheHits)
		}
		if got, want := renderAll(t, rep), coldRender(t, g.Name, g, opts); got != want {
			t.Errorf("variant %d: repeat differs from a cold run", i)
		}
	}
}

// TestStoreRegionChangeSolvesFromEmpty changes the shape of every
// shared-memory region and plants the unchanged program's verdict under
// the changed sources' tag: the run must not take it.
func TestStoreRegionChangeSolvesFromEmpty(t *testing.T) {
	c := core.NewCache()
	g := split130(1)
	opts := core.Options{Stats: true, Cache: c}
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
		t.Fatal("the unchanged program stored no verdict")
	}
	rep := fresh(t, g.Name, wider.Sources, wider.CFiles, opts)
	if m := rep.Metrics; m.CacheHits != 0 || m.IncrFuncsReused != 0 {
		t.Errorf("region change took a verdict of %d units and reused %d functions, want none", m.CacheHits, m.IncrFuncsReused)
	}
	if got, want := renderAll(t, rep), coldRender(t, g.Name, wider, opts); got != want {
		t.Error("report after a region change differs from a cold run")
	}
}

// TestStoreCorruptionSelfHeals damages the stored verdict: the next run
// must evict it, count the eviction, solve cold with an unchanged
// report, and store a good verdict again.
func TestStoreCorruptionSelfHeals(t *testing.T) {
	c := core.NewCache()
	g := split130(2)
	opts := core.Options{Stats: true, Cache: c}
	want := coldRender(t, g.Name, g, opts)
	fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if n := c.State.Corrupt(1); n != 1 {
		t.Fatalf("corrupted %d verdicts, want 1", n)
	}
	rep := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	m := *rep.Metrics
	if m.CacheCorruptEvictions != 1 || m.CacheHits != 0 || m.CacheMisses == 0 {
		t.Errorf("damaged verdict: corrupt evictions %d, hits %d, misses %d; want 1, 0, > 0",
			m.CacheCorruptEvictions, m.CacheHits, m.CacheMisses)
	}
	if renderAll(t, rep) != want {
		t.Error("report changed after the stored verdict was damaged")
	}
	rep = fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if m := rep.Metrics; m.CacheCorruptEvictions != 0 || m.CacheMisses != 0 || m.CacheHits == 0 {
		t.Errorf("healed store: corrupt evictions %d, misses %d, hits %d; want 0, 0, > 0", m.CacheCorruptEvictions, m.CacheMisses, m.CacheHits)
	}
	if renderAll(t, rep) != want {
		t.Error("report changed after the store healed")
	}
}

// TestStoreConcurrentHits has four goroutines analyze one system
// through one Cache whose stored verdict they all take (run it under
// -race): a stored verdict is read-only, every hit binds its own
// findings, and every report equals the cold reference.
func TestStoreConcurrentHits(t *testing.T) {
	c := core.NewCache()
	g := split130(1)
	want := coldRender(t, g.Name, g, core.Options{Stats: true})
	fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Cache: c})

	const goroutines = 4
	got := make([]string, goroutines)
	hits := make([]int, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Workers: 1 + i%2, Stats: true, Cache: c})
			hits[i] = rep.Metrics.CacheHits
			got[i] = renderAll(t, rep)
		}(i)
	}
	wg.Wait()
	for i, r := range got {
		if hits[i] != 129 {
			t.Errorf("goroutine %d: took a verdict of %d units, want 129", i, hits[i])
		}
		if r != want {
			t.Errorf("goroutine %d: report differs from a cold run", i)
		}
	}
}

// TestStoreVerdictCounts pins what a repeat analysis does: the first run
// of split 130-TU seed 1 solves all 129 units, and a memory-warm repeat
// takes the verdict of all 129, solves none and evaluates no transfer.
func TestStoreVerdictCounts(t *testing.T) {
	c := core.NewCache()
	g := split130(1)
	opts := core.Options{Workers: 1, Stats: true, Cache: c}
	first := fresh(t, g.Name, g.Sources, g.CFiles, opts).Metrics
	if first.CacheHits != 0 || first.CacheMisses != 129 || first.UnitsSolved != 129 {
		t.Errorf("first run: took %d, solved %d (%d solves); want 0, 129 (129)",
			first.CacheHits, first.CacheMisses, first.UnitsSolved)
	}
	repeat := fresh(t, g.Name, g.Sources, g.CFiles, opts).Metrics
	if repeat.CacheHits != 129 || repeat.CacheMisses != 0 || repeat.UnitsSolved != 0 || repeat.VFGTransfers != 0 || repeat.SCCs != first.SCCs {
		t.Errorf("repeat: took %d, solved %d (%d solves, %d transfers), %d SCCs; want 129, 0 (0, 0), %d",
			repeat.CacheHits, repeat.CacheMisses, repeat.UnitsSolved, repeat.VFGTransfers, repeat.SCCs, first.SCCs)
	}
}

// TestStoreFirstRunUntracked: a first analysis through a Cache runs phase
// 3 untracked, as a run with no Cache does: the same solves and transfers
// at one worker, and no incremental counter set.
func TestStoreFirstRunUntracked(t *testing.T) {
	g := split130(1)
	cold := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Workers: 1, Stats: true})
	first := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Workers: 1, Stats: true, Cache: core.NewCache()})
	if first.UnitsAnalyzed != cold.UnitsAnalyzed {
		t.Errorf("first run through a Cache: %d solves, nil-cache run %d", first.UnitsAnalyzed, cold.UnitsAnalyzed)
	}
	m, cm := first.Metrics, cold.Metrics
	if m.VFGTransfers != cm.VFGTransfers || m.VFGTransfers == 0 {
		t.Errorf("first run through a Cache: %d transfers, nil-cache run %d", m.VFGTransfers, cm.VFGTransfers)
	}
	if m.IncrFuncsInvalidated+m.IncrFuncsReused+m.IncrUnitsReplayed+m.IncrRestarts != 0 {
		t.Errorf("first run through a Cache is tracked: incremental counters %d/%d/%d/%d",
			m.IncrFuncsInvalidated, m.IncrFuncsReused, m.IncrUnitsReplayed, m.IncrRestarts)
	}
}

// TestStoreModuleMissVerdictHit evicts the module of an analyzed system
// from the module tier: the repeat compiles the module again, takes the
// stored verdict against the regions of its own phase 1, and renders the
// cold run's bytes; every warning's region is one of the repeat's
// Report.Regions, not one of the first run's.
func TestStoreModuleMissVerdictHit(t *testing.T) {
	c := core.NewCache()
	g := split130(1)
	opts := core.Options{Stats: true, Cache: c}
	want := coldRender(t, g.Name, g, opts)
	first := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	c.Module = frontend.NewModuleCache()

	rep := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if rep.Module == first.Module {
		t.Fatal("the repeat shares the evicted module")
	}
	if m := rep.Metrics; m.CacheHits != 129 || m.CacheMisses != 0 || m.UnitsSolved != 0 {
		t.Errorf("module-tier miss: took %d, solved %d (%d solves); want 129, 0 (0)", m.CacheHits, m.CacheMisses, m.UnitsSolved)
	}
	if len(rep.Warnings) == 0 {
		t.Fatal("the repeat reports no warning to check")
	}
	for i, w := range rep.Warnings {
		if w.Region != nil && !slices.Contains(rep.Regions, w.Region) {
			t.Errorf("warning %d (%s): region is not one of this run's regions", i, w)
		}
	}
	if renderAll(t, rep) != want {
		t.Error("report after a module-tier miss with a verdict hit differs from a cold run")
	}
}

// TestStoreVerdictKeepsNoModule: a stored verdict keeps no module alive.
// Once the module is evicted from the module tier and no report holds
// it, a collection frees it while the verdict stays and is taken.
func TestStoreVerdictKeepsNoModule(t *testing.T) {
	c := core.NewCache()
	g := split130(1)
	opts := core.Options{Stats: true, Cache: c}
	module := weak.Make(fresh(t, g.Name, g.Sources, g.CFiles, opts).Module)
	c.Module = frontend.NewModuleCache()
	runtime.GC()
	if module.Value() != nil {
		t.Error("the evicted module is still reachable")
	}
	if n := c.State.Len(); n != 1 {
		t.Fatalf("state tier holds %d verdicts, want 1", n)
	}
	if m := fresh(t, g.Name, g.Sources, g.CFiles, opts).Metrics; m.CacheHits != 129 {
		t.Errorf("the verdict was not taken after the module was freed: %d units", m.CacheHits)
	}
}

// TestCacheIsolation checks that caches are values: a second Cache
// shares nothing with the first, so its first run parses every unit and
// takes no verdict; a nil Cache is cold and untracked; and the first
// Cache is still memory-warm afterwards: a repeat of split 130-TU seed 1
// on it solves no unit and takes the verdict of all 129.
func TestCacheIsolation(t *testing.T) {
	g := split130(1)
	first := core.NewCache()
	opts := core.Options{Workers: 1, Stats: true, Cache: first}
	want := renderAll(t, fresh(t, g.Name, g.Sources, g.CFiles, opts))

	opts.Cache = core.NewCache()
	second := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if m := second.Metrics; m.FrontendCacheHits != 0 || m.FrontendCacheMisses != len(g.CFiles) || m.CacheHits != 0 || m.CacheMisses != 129 {
		t.Errorf("second cache: frontend hits/misses %d/%d, units taken/solved %d/%d; want 0/%d, 0/129",
			m.FrontendCacheHits, m.FrontendCacheMisses, m.CacheHits, m.CacheMisses, len(g.CFiles))
	}
	if renderAll(t, second) != want {
		t.Error("second cache: report differs")
	}

	opts.Cache = nil
	cold := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if m := cold.Metrics; m.FrontendCacheHits+m.FrontendCacheMisses != 0 || m.CacheHits+m.CacheMisses != 0 || m.IncrUnitsReplayed != 0 || m.UnitsSolved != 129 {
		t.Errorf("nil cache: frontend hits/misses %d/%d, units taken/solved %d/%d, %d solves; want an untracked cold run (0/0, 0/0, 129)",
			m.FrontendCacheHits, m.FrontendCacheMisses, m.CacheHits, m.CacheMisses, m.UnitsSolved)
	}
	if renderAll(t, cold) != want {
		t.Error("nil cache: report differs")
	}

	opts.Cache = first
	warm := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if m := warm.Metrics; m.FrontendCacheHits != len(g.CFiles) || m.CacheHits != 129 || m.CacheMisses != 0 || m.UnitsSolved != 0 {
		t.Errorf("first cache again: frontend hits %d, units taken/solved %d/%d, %d solves; want %d, 129/0, 0",
			m.FrontendCacheHits, m.CacheHits, m.CacheMisses, m.UnitsSolved, len(g.CFiles))
	}
	if renderAll(t, warm) != want {
		t.Error("first cache again: report differs")
	}
}
