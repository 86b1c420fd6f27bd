package core_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
)

// The unit tier of a Cache keeps, per system name, unit and defines, the
// parse key of a unit's last clean compile and the files it read. These
// oracles check that a unit is preprocessed again exactly when one of
// those files or the defines changed, that one system name analyzed
// with other sources at once stays correct, and that a slot whose parse
// entry is gone falls back to the preprocessor.

// countingSource counts the reads of each file; it is safe for
// concurrent use, as the unit pool reads from several goroutines.
type countingSource struct {
	src   cpp.MapSource
	mu    sync.Mutex
	reads map[string]int
}

func (s *countingSource) ReadFile(name string) (string, error) {
	s.mu.Lock()
	s.reads[name]++
	s.mu.Unlock()
	return s.src.ReadFile(name)
}

// unitProbeSystem is probeSystem with probe.c including the unguarded
// probe_twice.h twice: preprocessing probe.c reads it twice, checking
// probe.c's slot once.
func unitProbeSystem(t *testing.T) corpus.Generated {
	g := probeSystem()
	g.Sources["probe_twice.h"] = "extern int probe_twice;\n"
	g.Sources["probe.c"] = "#include \"probe_twice.h\"\n#include \"probe_twice.h\"\n" + g.Sources["probe.c"]
	for _, cf := range g.CFiles {
		if cf != "probe.c" && strings.Count(g.Sources[cf], "#include") != 1 {
			t.Fatalf("%s does not include exactly one header", cf)
		}
	}
	return g
}

// TestUnitTierInvalidation primes a Cache with the probe system, then
// analyzes a changed input through it and counts what the preprocessor
// did: every include it expands is one include memo lookup (one per
// generated unit, two for probe.c), and probe_twice.h is read twice by
// probe.c's preprocessor and once by a check of probe.c's slot. An
// unchanged repeat preprocesses nothing, an edit preprocesses the units
// that read the edited file, and any -D change preprocesses every unit,
// since the defines are part of the slot. Every report is a cold run's.
func TestUnitTierInvalidation(t *testing.T) {
	base := unitProbeSystem(t)
	edit := func(file, suffix string) corpus.Generated {
		g := base
		g.Sources = make(map[string]string, len(base.Sources))
		for k, v := range base.Sources {
			g.Sources[k] = v
		}
		g.Sources[file] += suffix
		return g
	}
	all := len(base.CFiles) + 1 // probe.c looks two includes up
	gen := len(base.CFiles) - 1
	for _, tc := range []struct {
		name       string
		g          corpus.Generated
		defines    map[string]string
		lookups    int // include memo lookups: the units preprocessed
		twiceReads int // reads of probe_twice.h
	}{
		{"unchanged repeat", base, nil, 0, 1},
		{"one unit edited", edit(base.CFiles[0], "int unit_probe;\n"), nil, 1, 1},
		{"header every generated unit reads edited", edit("gen.h", "int header_probe;\n"), nil, gen, 1},
		{"header probe.c reads edited", edit("probe_twice.h", "extern int twice_probe;\n"), nil, 2, 3},
		{"header no unit reads edited", edit("probe_dbg.h", "int unread_probe;\n"), nil, 0, 1},
		{"define read by a unit", base, map[string]string{"PROBE_N": "2"}, all, 2},
		{"define read by no unit", base, map[string]string{"UNREAD_PROBE": "1"}, all, 2},
	} {
		want := coldRender(t, tc.g.Name, tc.g, core.Options{Defines: tc.defines, Stats: true})
		c := core.NewCache()
		fresh(t, base.Name, base.Sources, base.CFiles, core.Options{Cache: c})
		src := &countingSource{src: tc.g.Sources, reads: make(map[string]int)}
		rep, err := core.AnalyzeSources(context.Background(), tc.g.Name, src, tc.g.CFiles,
			core.Options{Defines: tc.defines, Cache: c, Stats: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if m := rep.Metrics; m.IncludeMemoHits+m.IncludeMemoMisses != tc.lookups {
			t.Errorf("%s: %d include lookups, want %d", tc.name, m.IncludeMemoHits+m.IncludeMemoMisses, tc.lookups)
		}
		if n := src.reads["probe_twice.h"]; n != tc.twiceReads {
			t.Errorf("%s: probe_twice.h read %d times, want %d", tc.name, n, tc.twiceReads)
		}
		if renderAll(t, rep) != want {
			t.Errorf("%s: report differs from a cold run", tc.name)
		}
	}
}

// TestUnitTierConcurrentSystems analyzes one system name with two sets
// of sources from two goroutines at once, through one Cache (run it
// under -race): each replaces the other's slots, and each report is its
// own sources' cold run.
func TestUnitTierConcurrentSystems(t *testing.T) {
	a := unitProbeSystem(t)
	b := unitProbeSystem(t)
	b.Sources["gen.h"] += "int concurrent_probe;\n"
	b.Sources["probe_twice.h"] += "extern int concurrent_twice;\n"
	c := core.NewCache()
	var wg sync.WaitGroup
	for _, g := range []corpus.Generated{a, b} {
		want := coldRender(t, a.Name, g, core.Options{})
		wg.Add(1)
		go func(g corpus.Generated) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				rep, err := core.AnalyzeSources(context.Background(), a.Name, cpp.MapSource(g.Sources), g.CFiles,
					core.Options{Workers: 2, Cache: c})
				if err != nil {
					t.Error(err)
					return
				}
				if renderAll(t, rep) != want {
					t.Errorf("run %d: report differs from its sources' cold run", i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestUnitTierParseEntryLost: a fresh slot whose parse entry was evicted
// or damaged, or a damaged slot, falls back to the preprocessor for
// every unit; damage is counted, and the report is a cold run's.
func TestUnitTierParseEntryLost(t *testing.T) {
	g := unitProbeSystem(t)
	want := coldRender(t, g.Name, g, core.Options{Stats: true})
	all := len(g.CFiles) + 1
	for _, tc := range []struct {
		name    string
		lose    func(c *core.Cache)
		corrupt int
	}{
		{"parse entries evicted", func(c *core.Cache) { c.Parse = frontend.NewParseCache() }, 0},
		{"parse entries damaged", func(c *core.Cache) { c.Parse.Corrupt(c.Parse.Len()) }, len(g.CFiles)},
		{"slots damaged", func(c *core.Cache) { c.Units.Corrupt(c.Units.Len()) }, len(g.CFiles)},
	} {
		c := core.NewCache()
		fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Cache: c})
		tc.lose(c)
		rep := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Cache: c, Stats: true})
		if m := rep.Metrics; m.IncludeMemoHits+m.IncludeMemoMisses != all || m.CacheCorruptEvictions != tc.corrupt {
			t.Errorf("%s: %d include lookups, %d corrupt evictions; want %d, %d",
				tc.name, m.IncludeMemoHits+m.IncludeMemoMisses, m.CacheCorruptEvictions, all, tc.corrupt)
		}
		if renderAll(t, rep) != want {
			t.Errorf("%s: report differs from a cold run", tc.name)
		}
		if rep := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Cache: c, Stats: true}); rep.Metrics.IncludeMemoHits+rep.Metrics.IncludeMemoMisses != 0 {
			t.Errorf("%s: the run after the fallback preprocessed units again", tc.name)
		}
	}
}
