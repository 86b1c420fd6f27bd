package faultinject

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/diag"
)

// harnessSeeds is the fixed seed set the CI smoke job runs; every
// invariant below must hold for each of them.
var harnessSeeds = []int64{3, 17, 99, 2026}

func TestMutateDeterministic(t *testing.T) {
	gen := corpus.Generate(7, corpus.GenConfig{})
	a, fa := Mutate(7, gen.Sources, EligibleUnits, 1)
	b, fb := Mutate(7, gen.Sources, EligibleUnits, 1)
	if fmt.Sprint(fa) != fmt.Sprint(fb) {
		t.Fatalf("faults differ across runs: %v vs %v", fa, fb)
	}
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s differs across identical seeds", name)
		}
	}
	if len(fa) != 1 {
		t.Fatalf("faults = %v, want 1", fa)
	}
	if gen.Sources[fa[0].Unit] == a[fa[0].Unit] {
		t.Error("faulted unit unchanged")
	}
	// The original map must not be modified.
	fresh := corpus.Generate(7, corpus.GenConfig{})
	for name := range gen.Sources {
		if gen.Sources[name] != fresh.Sources[name] {
			t.Errorf("Mutate modified its input map (%s)", name)
		}
	}
}

// Every fault kind must surface as a diagnostic in its own phase, skip
// the faulted unit, and still produce verdicts for the survivors.
func TestFaultKindsProduceDiagnostics(t *testing.T) {
	wantPhase := map[Kind]string{
		KindLex:       diag.PhaseLex,
		KindParse:     diag.PhaseParse,
		KindTypecheck: diag.PhaseTypecheck,
	}
	for k, phase := range wantPhase {
		t.Run(k.String(), func(t *testing.T) {
			gen := corpus.Generate(11, corpus.GenConfig{})
			sources := map[string]string{}
			for name, text := range gen.Sources {
				sources[name] = text
			}
			sources["stages.c"] += k.payload()
			rep, err := core.AnalyzeSources(context.Background(), gen.Name, cpp.MapSource(sources), gen.CFiles, core.Options{Recover: true})
			if err != nil {
				t.Fatalf("recovering analysis failed outright: %v", err)
			}
			if !rep.Degraded || rep.Clean() {
				t.Fatalf("Degraded=%v Clean=%v, want degraded and not clean", rep.Degraded, rep.Clean())
			}
			found := false
			for _, d := range rep.Diagnostics {
				if d.Unit == "stages.c" && d.Phase == phase {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s diagnostic for stages.c; got %v", phase, rep.Diagnostics)
			}
			// KindLex plants two lexical errors; all must be reported.
			if k == KindLex {
				n := 0
				for _, d := range rep.Diagnostics {
					if d.Phase == diag.PhaseLex {
						n++
					}
				}
				if n < 2 {
					t.Errorf("lex diagnostics = %d, want >= 2 (all lexer errors surfaced)", n)
				}
			}
		})
	}
}

// The tentpole determinism invariant: the same seeded faults produce
// byte-identical text and JSON reports at every worker count, and the
// run leaves no goroutines behind.
func TestDegradedRunsAreDeterministic(t *testing.T) {
	for _, seed := range harnessSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var first *Result
			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				sc := Scenario{Seed: seed, Faults: 1, Workers: workers}
				res, err := Run(context.Background(), sc, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v\n%s", workers, err, sc.Repro())
				}
				if !res.Report.Degraded {
					t.Fatalf("workers=%d: run not degraded\n%s", workers, sc.Repro())
				}
				skipped := map[string]bool{}
				for _, u := range diag.Units(res.Report.Diagnostics) {
					skipped[u] = true
				}
				for _, f := range res.Faults {
					if !skipped[f.Unit] {
						t.Errorf("workers=%d: faulted unit %s missing from diagnostics\n%s",
							workers, f.Unit, sc.Repro())
					}
				}
				if first == nil {
					first = res
					continue
				}
				if res.Text != first.Text {
					t.Errorf("workers=%d: text report differs (%s)\n--- workers=1:\n%s\n--- workers=%d:\n%s",
						workers, sc.Repro(), first.Text, workers, res.Text)
				}
				if res.JSON != first.JSON {
					t.Errorf("workers=%d: JSON report differs\n%s", workers, sc.Repro())
				}
			}
			if err := WaitGoroutineBaseline(baseline, 2*time.Second); err != nil {
				t.Error(err)
			}
		})
	}
}

// A degraded run must never write to the state tier: its skipped-def
// summaries are conservative placeholders, so a later healthy run must
// not take its verdict.
func TestNoSummaryCacheWritesOnFaultedRuns(t *testing.T) {
	c := core.NewCache()
	for _, seed := range harnessSeeds {
		sc := Scenario{Seed: seed, Faults: 1}
		if _, err := Run(context.Background(), sc, c); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sc.Repro())
		}
		if n := c.State.Len(); n != 0 {
			t.Fatalf("seed %d: faulted run stored %d phase-3 states\n%s", seed, n, sc.Repro())
		}
	}
}

// A unit that failed to lex or parse must never publish a parse-cache
// entry; units that parsed cleanly may (a typecheck fault fails later).
func TestNoParseCacheEntryForFaultedUnit(t *testing.T) {
	for _, seed := range harnessSeeds {
		c := core.NewCache()
		sc := Scenario{Seed: seed, Faults: 1}
		res, err := Run(context.Background(), sc, c)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sc.Repro())
		}
		want := len(res.System.CFiles)
		for _, f := range res.Faults {
			if f.Kind == KindLex || f.Kind == KindParse {
				want--
			}
		}
		if n := c.Parse.Len(); n != want {
			t.Errorf("seed %d (faults %v): parse cache has %d entries, want %d\n%s",
				seed, res.Faults, n, want, sc.Repro())
		}
	}
}

// Corrupted cache entries self-heal: a damaged parse entry, compiled
// module or stored phase-3 state is evicted, the unit, module or state
// is recomputed, the eviction shows up in run metrics, and the report is
// unchanged from the healthy warm run.
func TestCacheCorruptionSelfHeals(t *testing.T) {
	c := core.NewCache()
	scen := Scenario{Seed: 42, Stats: true}
	run := func() (*Result, error) {
		return Run(context.Background(), scen, c)
	}
	warm, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.Degraded {
		t.Fatal("unfaulted scenario reported degraded")
	}
	if _, err := run(); err != nil { // take the stored verdict
		t.Fatal(err)
	}
	if c.State.Len() == 0 || c.Parse.Len() == 0 || c.Module.Len() == 0 {
		t.Fatalf("healthy run did not populate caches (states=%d parse=%d modules=%d)",
			c.State.Len(), c.Parse.Len(), c.Module.Len())
	}

	pc := c.Parse.Corrupt(2)
	mc := c.Module.Corrupt(1)
	sc := c.State.Corrupt(1)
	if pc == 0 || mc == 0 || sc == 0 {
		t.Fatalf("corruption hooks touched nothing (parse=%d modules=%d states=%d)", pc, mc, sc)
	}
	healed, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if healed.Text != warm.Text {
		t.Errorf("report changed after cache corruption (%s)\n--- warm:\n%s\n--- healed:\n%s",
			scen.Repro(), warm.Text, healed.Text)
	}
	m := healed.Report.Metrics
	if m == nil {
		t.Fatal("no metrics collected")
	}
	if m.CacheCorruptEvictions < pc+mc+sc {
		t.Errorf("cache_corrupt_evictions = %d, want >= %d", m.CacheCorruptEvictions, pc+mc+sc)
	}
	if c.Module.Len() == 0 {
		t.Error("the healed run stored no module in place of the damaged one")
	}
}

// An injected worker panic mid-pipeline is isolated into
// Report.Internal while the seeded front-end faults still degrade the
// run — both failure layers coexist without killing the analysis.
func TestWorkerPanicIsolation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	core.SetPhaseHook(func(phase, system string) {
		if phase == "restrict" {
			panic("faultinject: injected restrict panic")
		}
	})
	defer core.SetPhaseHook(nil)

	res, err := Run(context.Background(), Scenario{Seed: 5, Faults: 1}, nil)
	if err != nil {
		t.Fatalf("panic escaped isolation: %v", err)
	}
	if len(res.Report.Internal) == 0 {
		t.Error("injected panic not recorded in Report.Internal")
	}
	if !res.Report.Degraded {
		t.Error("front-end faults lost when a later phase panicked")
	}
	if res.Report.Clean() {
		t.Error("faulted+panicked run claims clean")
	}
	core.SetPhaseHook(nil)
	if err := WaitGoroutineBaseline(baseline, 2*time.Second); err != nil {
		t.Error(err)
	}
}

// Seeded cancellation at randomized pipeline boundaries: the run returns
// ctx.Err() promptly, leaves no goroutines behind, and never stores a
// phase-3 state for the aborted module.
func TestSeededCancellation(t *testing.T) {
	phases := []string{"frontend", "shmflow", "restrict", "pointsto", "vfg"}
	c := core.NewCache()
	baseline := runtime.NumGoroutine()
	for i, seed := range harnessSeeds {
		phase := phases[(int(seed)+i)%len(phases)]
		sc := Scenario{Seed: seed, Faults: 1, Workers: 2}
		ctx, cancel := context.WithCancel(context.Background())
		core.SetPhaseHook(func(p, system string) {
			if p == phase {
				cancel()
			}
		})
		_, err := Run(ctx, sc, c)
		core.SetPhaseHook(nil)
		cancel()
		if err != context.Canceled {
			t.Errorf("seed %d cancel@%s: err = %v, want context.Canceled\n%s", seed, phase, err, sc.Repro())
		}
		if n := c.State.Len(); n != 0 {
			t.Errorf("seed %d cancel@%s: cancelled run stored %d phase-3 states\n%s", seed, phase, n, sc.Repro())
		}
	}
	if err := WaitGoroutineBaseline(baseline, 2*time.Second); err != nil {
		t.Error(err)
	}
}
