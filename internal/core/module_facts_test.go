package core_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/pointsto"
	"safeflow/internal/policy"
	"safeflow/internal/report"
)

// A module tier entry keeps, per points-to mode, the facts phases 1–3
// derive from the module alone. These oracles check that analyses
// sharing one entry's facts at once render what cold runs render, that
// the modes keep apart, that no failed, cancelled or crashed run stores
// facts, and that a changed input reaches another entry.

// appendingSystem is a generated system whose initializing function
// names three shared-memory variables that do not exist and calls no
// InitCheck. Phase 1 reports three errors, in an array with room for a
// fourth, and every report appends the missing InitCheck to them.
func appendingSystem(t *testing.T) corpus.Generated {
	t.Helper()
	g := corpus.Generate(5, corpus.GenConfig{Regions: 3, Monitors: 4, Stages: 6})
	src := make(map[string]string, len(g.Sources))
	for k, v := range g.Sources {
		src[k] = v
	}
	var ghosts strings.Builder
	for _, name := range []string{"ghost_a", "ghost_b", "ghost_c"} {
		fmt.Fprintf(&ghosts, "    /***SafeFlow Annotation assume(shmvar(%s, 8)) /***/\n", name)
	}
	init := strings.Replace(src["init.c"], "    InitCheck(base, total);\n", ghosts.String(), 1)
	if init == src["init.c"] {
		t.Fatal("the generated init.c calls no InitCheck")
	}
	src["init.c"] = init
	g.Sources = src
	return g
}

// TestModuleFactsConcurrentHits runs analyses of one system through one
// Cache at once, after a first run stored the entry's facts: the default
// and the credential-leak policy at 1, 2 and 4 workers, each with an
// unknown root. Every report appends errors to the shared phase-1 list
// (the missing root, the missing InitCheck) and must render what its
// own cold run renders (run it under -race, which reports an append
// into the shared array).
func TestModuleFactsConcurrentHits(t *testing.T) {
	g := appendingSystem(t)
	cred, ok := policy.Builtin("credential-leak")
	if !ok {
		t.Fatal("builtin policy credential-leak missing")
	}
	type job struct {
		pol     *policy.Compiled
		workers int
	}
	var jobs []job
	for _, pol := range []*policy.Compiled{nil, cred} {
		for _, w := range []int{1, 2, 4} {
			jobs = append(jobs, job{pol, w})
		}
	}
	optsOf := func(j job) core.Options {
		return core.Options{Policy: j.pol, Workers: j.workers, Roots: []string{"main", "no_such_root"}}
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = coldRender(t, g.Name, g, optsOf(j))
		if !strings.Contains(want[i], "ghost_c") || !strings.Contains(want[i], "no_such_root") || !strings.Contains(want[i], "InitCheck") {
			t.Fatalf("job %d: the cold report lacks the appended errors", i)
		}
	}

	c := core.NewCache()
	first := optsOf(jobs[0])
	first.Cache = c
	stored := fresh(t, g.Name, g.Sources, g.CFiles, first)
	facts := core.ModuleFacts(g.Name, g.Sources, g.CFiles, first)
	if facts == nil {
		t.Fatal("the first run stored no facts")
	}
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make([]string, len(jobs))
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				opts := optsOf(j)
				opts.Cache = c
				rep, err := core.AnalyzeSources(context.Background(), g.Name, cpp.MapSource(g.Sources), g.CFiles, opts)
				switch {
				case err != nil:
					errs[i] = err.Error()
				case rep.Module != stored.Module:
					errs[i] = "compiled a new module"
				default:
					if got, err := render(rep); err != nil {
						errs[i] = err.Error()
					} else if got != want[i] {
						errs[i] = "report differs from a cold run"
					}
				}
			}(i, j)
		}
		wg.Wait()
		for i, e := range errs {
			if e != "" {
				t.Errorf("round %d, policy %v, workers %d: %s", round, jobs[i].pol != nil, jobs[i].workers, e)
			}
		}
	}
	if core.ModuleFacts(g.Name, g.Sources, g.CFiles, first) != facts {
		t.Error("the entry's facts were replaced")
	}
}

// render renders rep as renderAll does, from any goroutine.
func render(rep *core.Report) (string, error) {
	var buf bytes.Buffer
	report.Write(&buf, rep)
	rep.Metrics.Canonicalize()
	err := report.WriteJSON(&buf, rep)
	return buf.String(), err
}

// TestModuleFactsPerMode: facts stored under one points-to mode serve
// only that mode. A run under the other mode finds its slot empty,
// renders its own cold report and stores facts of its own.
func TestModuleFactsPerMode(t *testing.T) {
	g := probeSystem()
	c := core.NewCache()
	subset := core.Options{Cache: c, PointsTo: pointsto.ModeSubset}
	unify := core.Options{Cache: c, PointsTo: pointsto.ModeUnify}
	fresh(t, g.Name, g.Sources, g.CFiles, subset)
	subsetFacts := core.ModuleFacts(g.Name, g.Sources, g.CFiles, subset)
	if subsetFacts == nil {
		t.Fatal("the subset run stored no facts")
	}
	if core.ModuleFacts(g.Name, g.Sources, g.CFiles, unify) != nil {
		t.Fatal("a subset run stored facts for unify")
	}
	want := coldRender(t, g.Name, g, unify)
	for i := 0; i < 2; i++ {
		if got := renderAll(t, fresh(t, g.Name, g.Sources, g.CFiles, unify)); got != want {
			t.Errorf("unify run %d: report differs from a cold run", i)
		}
	}
	unifyFacts := core.ModuleFacts(g.Name, g.Sources, g.CFiles, unify)
	if unifyFacts == nil || unifyFacts == subsetFacts {
		t.Error("the unify run stored no facts of its own")
	}
	if core.ModuleFacts(g.Name, g.Sources, g.CFiles, subset) != subsetFacts {
		t.Error("the unify run replaced the subset facts")
	}
	if got := renderAll(t, fresh(t, g.Name, g.Sources, g.CFiles, subset)); got != coldRender(t, g.Name, g, subset) {
		t.Error("subset hit: report differs from a cold run")
	}
}

// TestModuleFactsNotStoredOnFailure: a degraded run, a run cancelled in
// a late phase and a run with a crashed phase store no facts, at one
// worker and at two (where points-to runs in its own goroutine). A hit
// still fires every phase hook, so a crash injected into a run that
// reuses facts is reported and leaves the stored facts alone.
func TestModuleFactsNotStoredOnFailure(t *testing.T) {
	good := probeSystem()
	bad := probeSystem()
	bad.Sources["probe.c"] = "int probe_value(void)\n{\n    return undeclared_probe;\n}\n"
	ctx := context.Background()
	defer core.SetPhaseHook(nil)

	c := core.NewCache()
	rep, err := core.AnalyzeSources(ctx, bad.Name, cpp.MapSource(bad.Sources), bad.CFiles, core.Options{Recover: true, Cache: c})
	if err != nil || !rep.Degraded {
		t.Fatalf("recovering run over a broken unit: err %v", err)
	}
	if n := c.Module.Len(); n != 0 {
		t.Errorf("degraded run stored %d modules", n)
	}

	for _, workers := range []int{1, 2} {
		for _, phase := range []string{"restrict", "vfg"} {
			c := core.NewCache()
			opts := core.Options{Cache: c, Workers: workers}
			cctx, cancel := context.WithCancel(ctx)
			core.SetPhaseHook(func(p, _ string) {
				if p == phase {
					cancel()
				}
			})
			_, err := core.AnalyzeSources(cctx, good.Name, cpp.MapSource(good.Sources), good.CFiles, opts)
			core.SetPhaseHook(nil)
			cancel()
			if err != context.Canceled {
				t.Fatalf("workers %d, cancel in %s: err %v", workers, phase, err)
			}
			if core.ModuleFacts(good.Name, good.Sources, good.CFiles, opts) != nil {
				t.Errorf("workers %d: a run cancelled in %s stored facts", workers, phase)
			}
		}
		for _, phase := range []string{"shmflow", "restrict", "pointsto", "vfg"} {
			c := core.NewCache()
			opts := core.Options{Cache: c, Workers: workers}
			core.SetPhaseHook(panicIn(phase))
			rep := fresh(t, good.Name, good.Sources, good.CFiles, opts)
			core.SetPhaseHook(nil)
			if len(rep.Internal) == 0 {
				t.Fatalf("workers %d: the %s panic was not reported", workers, phase)
			}
			if core.ModuleFacts(good.Name, good.Sources, good.CFiles, opts) != nil {
				t.Errorf("workers %d: a run whose %s phase crashed stored facts", workers, phase)
			}

			fresh(t, good.Name, good.Sources, good.CFiles, opts)
			facts := core.ModuleFacts(good.Name, good.Sources, good.CFiles, opts)
			if facts == nil {
				t.Fatalf("workers %d: the clean run after a %s crash stored no facts", workers, phase)
			}
			core.SetPhaseHook(panicIn(phase))
			rep = fresh(t, good.Name, good.Sources, good.CFiles, opts)
			core.SetPhaseHook(nil)
			if len(rep.Internal) == 0 {
				t.Errorf("workers %d: the %s panic of a run reusing facts was not reported", workers, phase)
			}
			if core.ModuleFacts(good.Name, good.Sources, good.CFiles, opts) != facts {
				t.Errorf("workers %d: a run whose %s phase crashed replaced the facts", workers, phase)
			}
		}
	}
}

// panicIn is a phase hook that panics in the named phase.
func panicIn(phase string) func(string, string) {
	return func(p, _ string) {
		if p == phase {
			panic(fmt.Sprintf("injected %s panic", phase))
		}
	}
}

// TestModuleFactsEditMisses: a define the sources read and an edited
// header reach another module tier entry, whose facts the changed run
// computes and stores; the first entry keeps its own.
func TestModuleFactsEditMisses(t *testing.T) {
	base := probeSystem()
	header := base
	header.Sources = make(map[string]string, len(base.Sources))
	for k, v := range base.Sources {
		header.Sources[k] = v
	}
	header.Sources["gen.h"] += "int header_probe;\n"

	c := core.NewCache()
	baseOpts := core.Options{Cache: c}
	fresh(t, base.Name, base.Sources, base.CFiles, baseOpts)
	baseFacts := core.ModuleFacts(base.Name, base.Sources, base.CFiles, baseOpts)
	if baseFacts == nil {
		t.Fatal("the first run stored no facts")
	}
	for _, tc := range []struct {
		name string
		g    corpus.Generated
		opts core.Options
	}{
		{"define", base, core.Options{Cache: c, Defines: map[string]string{"PROBE_N": "2"}}},
		{"header", header, core.Options{Cache: c}},
	} {
		if core.ModuleFacts(tc.g.Name, tc.g.Sources, tc.g.CFiles, tc.opts) != nil {
			t.Errorf("%s edit: reached an entry with facts before any run", tc.name)
		}
		if got := renderAll(t, fresh(t, tc.g.Name, tc.g.Sources, tc.g.CFiles, tc.opts)); got != coldRender(t, tc.g.Name, tc.g, tc.opts) {
			t.Errorf("%s edit: report differs from a cold run", tc.name)
		}
		f := core.ModuleFacts(tc.g.Name, tc.g.Sources, tc.g.CFiles, tc.opts)
		if f == nil || f == baseFacts {
			t.Errorf("%s edit: the run stored no facts of its own", tc.name)
		}
	}
	if core.ModuleFacts(base.Name, base.Sources, base.CFiles, baseOpts) != baseFacts {
		t.Error("the first entry's facts were replaced")
	}
}
