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
	"safeflow/internal/ir"
	"safeflow/internal/policy"
	"safeflow/internal/report"
)

// The module tier of a Cache keeps each clean compile's module under the
// system name and every unit's parse key. These oracles check that a
// hit returns the stored module itself, that every change the front end
// can see misses, that no failed compile stores a module, and that
// analyses sharing one module at once — other policies, other formats,
// other worker counts — render what a cold run renders.

// TestModuleTierWarmRepeat: a repeat analysis of unchanged sources
// returns the module the first run stored, pointer-equal, and renders
// the cold report.
func TestModuleTierWarmRepeat(t *testing.T) {
	g := split130(1)
	want := coldRender(t, g.Name, g, core.Options{Stats: true})
	c := core.NewCache()
	opts := core.Options{Stats: true, Cache: c}
	first := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if n := c.Module.Len(); n != 1 {
		t.Fatalf("after the first run the module tier holds %d modules, want 1", n)
	}
	for i := 0; i < 2; i++ {
		rep := fresh(t, g.Name, g.Sources, g.CFiles, opts)
		if rep.Module != first.Module {
			t.Errorf("repeat %d: compiled a new module", i)
		}
		if m := rep.Metrics; m.FrontendCacheHits != len(g.CFiles) || m.CacheHits != 129 {
			t.Errorf("repeat %d: frontend hits %d, verdict units taken %d; want %d, 129", i, m.FrontendCacheHits, m.CacheHits, len(g.CFiles))
		}
		if renderAll(t, rep) != want {
			t.Errorf("repeat %d: report differs from a cold run", i)
		}
	}
	if renderAll(t, first) != want {
		t.Error("first run: report differs from a cold run")
	}
}

// TestModuleTierIsolation: a new Cache shares no module with another,
// and a nil Cache compiles a module of its own on every run.
func TestModuleTierIsolation(t *testing.T) {
	g := split130(1)
	want := coldRender(t, g.Name, g, core.Options{})
	c := core.NewCache()
	first := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Cache: c})
	second := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Cache: core.NewCache()})
	if second.Module == first.Module {
		t.Error("a new Cache returned another Cache's module")
	}
	cold1 := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{})
	cold2 := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{})
	if cold1.Module == cold2.Module || cold1.Module == first.Module {
		t.Error("a nil Cache shared a module")
	}
	for i, rep := range []*core.Report{first, second, cold1, cold2} {
		if renderAll(t, rep) != want {
			t.Errorf("run %d: report differs from a cold run", i)
		}
	}
}

// probeSystem is a generated system plus probe.c, whose one function
// returns PROBE_N: 1 unless the defines set it.
func probeSystem() corpus.Generated {
	g := corpus.Generate(7, corpus.GenConfig{Regions: 3, Monitors: 4, Stages: 5})
	src := make(map[string]string, len(g.Sources)+1)
	for k, v := range g.Sources {
		src[k] = v
	}
	src["probe.c"] = "#ifndef PROBE_N\n#define PROBE_N 1\n#endif\n#ifdef PROBE_DEBUG\n#include \"probe_dbg.h\"\n#endif\nint probe_value(void)\n{\n    return PROBE_N;\n}\n"
	src["probe_dbg.h"] = "int probe_debug;\n"
	g.Sources = src
	g.CFiles = append(append([]string(nil), g.CFiles...), "probe.c")
	return g
}

// TestModuleTierInvalidation: an edited header, an edited unit and a
// define the sources read each compile a new module, whose report is a
// cold run's of the changed input, and take no stored phase-3 verdict.
// A define no unit reads changes no preprocessed text, so the module is
// reused. A header no unit reads — probe_dbg.h while PROBE_DEBUG is
// undefined — is no part of the program: editing it hits both tiers, the
// module and the verdict. Going back to the first
// sources finds their module again.
func TestModuleTierInvalidation(t *testing.T) {
	base := probeSystem()
	if _, ok := base.Sources["gen.h"]; !ok {
		t.Fatal("the generated system has no gen.h")
	}
	edit := func(file, suffix string) corpus.Generated {
		g := base
		g.Sources = make(map[string]string, len(base.Sources))
		for k, v := range base.Sources {
			g.Sources[k] = v
		}
		g.Sources[file] += suffix
		return g
	}
	c := core.NewCache()
	modules := map[string]*ir.Module{
		"first": fresh(t, base.Name, base.Sources, base.CFiles, core.Options{Cache: c}).Module,
	}
	for _, tc := range []struct {
		name    string
		g       corpus.Generated
		defines map[string]string
		sameAs  string // the earlier run whose module this one must reuse; "" for a new one
		hit     bool   // the run takes the stored verdict; otherwise it solves every unit
	}{
		{"edited unread header", edit("probe_dbg.h", "int unread_probe;\n"), nil, "first", true},
		{"edited header", edit("gen.h", "int header_probe;\n"), nil, "", false},
		{"edited unit", edit(base.CFiles[0], "int unit_probe;\n"), nil, "", false},
		{"define read by a unit", base, map[string]string{"PROBE_N": "2"}, "", false},
		{"define read by no unit", base, map[string]string{"PROBE_N": "2", "UNREAD_PROBE": "1"}, "define read by a unit", false},
		{"define pulling a header in", base, map[string]string{"PROBE_DEBUG": "1"}, "", false},
		{"first sources again", base, nil, "first", false},
	} {
		opts := core.Options{Defines: tc.defines, Stats: true}
		want := coldRender(t, tc.g.Name, tc.g, opts)
		opts.Cache = c
		rep := fresh(t, tc.g.Name, tc.g.Sources, tc.g.CFiles, opts)
		for name, m := range modules {
			if reused, wantReused := rep.Module == m, m == modules[tc.sameAs]; reused != wantReused {
				t.Errorf("%s: module of %q reused = %v, want %v", tc.name, name, reused, wantReused)
			}
		}
		if m := rep.Metrics; tc.hit && (m.CacheHits == 0 || m.CacheMisses != 0) || !tc.hit && m.CacheHits != 0 {
			t.Errorf("%s: took a verdict of %d units and solved %d, want the verdict taken = %v", tc.name, m.CacheHits, m.CacheMisses, tc.hit)
		}
		if renderAll(t, rep) != want {
			t.Errorf("%s: report differs from a cold run", tc.name)
		}
		modules[tc.name] = rep.Module
	}
}

// TestModuleTierNoStoreOnFailure: a degraded compile, a cancelled one
// and a fail-stop compile that failed store no module; the clean compile
// after them stores one.
func TestModuleTierNoStoreOnFailure(t *testing.T) {
	good := probeSystem()
	bad := probeSystem()
	bad.Sources["probe.c"] = "int probe_value(void)\n{\n    return undeclared_probe;\n}\n"
	c := core.NewCache()
	ctx := context.Background()

	rep, err := core.AnalyzeSources(ctx, bad.Name, cpp.MapSource(bad.Sources), bad.CFiles, core.Options{Recover: true, Cache: c})
	if err != nil || !rep.Degraded {
		t.Fatalf("recovering run over a broken unit: err %v, degraded %v", err, rep != nil && rep.Degraded)
	}
	if n := c.Module.Len(); n != 0 {
		t.Errorf("degraded compile stored %d modules", n)
	}

	if _, err := core.AnalyzeSources(ctx, bad.Name, cpp.MapSource(bad.Sources), bad.CFiles, core.Options{Cache: c}); err == nil {
		t.Fatal("fail-stop run over a broken unit succeeded")
	}
	if n := c.Module.Len(); n != 0 {
		t.Errorf("failed fail-stop compile stored %d modules", n)
	}

	cctx, cancel := context.WithCancel(ctx)
	core.SetPhaseHook(func(phase, _ string) {
		if phase == "frontend" {
			cancel()
		}
	})
	_, err = core.AnalyzeSources(cctx, good.Name, cpp.MapSource(good.Sources), good.CFiles, core.Options{Cache: c})
	core.SetPhaseHook(nil)
	cancel()
	if err != context.Canceled {
		t.Fatalf("cancelled run: err %v, want context.Canceled", err)
	}
	if n := c.Module.Len(); n != 0 {
		t.Errorf("cancelled compile stored %d modules", n)
	}

	fresh(t, good.Name, good.Sources, good.CFiles, core.Options{Cache: c})
	if n := c.Module.Len(); n != 1 {
		t.Errorf("clean compile stored %d modules, want 1", n)
	}
}

// TestModuleTierConcurrentShare runs analyses of split 130-TU through
// one Cache at once — the default and the credential-leak policy, each
// rendered as JSON and as SARIF — at 1, 2 and 4 workers (run it under
// -race). All of them hit the module a first run stored, and each
// renders what a cold run renders.
func TestModuleTierConcurrentShare(t *testing.T) {
	g := split130(1)
	cred, ok := policy.Builtin("credential-leak")
	if !ok {
		t.Fatal("builtin policy credential-leak missing")
	}
	render := func(rep *core.Report, sarif bool) string {
		var buf bytes.Buffer
		var err error
		if sarif {
			err = report.WriteSARIF(&buf, rep)
		} else {
			err = report.WriteJSON(&buf, rep)
		}
		if err != nil {
			t.Error(err)
		}
		return buf.String()
	}
	type job struct {
		pol   *policy.Compiled
		sarif bool
	}
	var jobs []job
	for _, pol := range []*policy.Compiled{nil, cred} {
		for _, sarif := range []bool{false, true} {
			jobs = append(jobs, job{pol, sarif})
		}
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = render(fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Policy: j.pol}), j.sarif)
	}

	c := core.NewCache()
	stored := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Cache: c}).Module
	for _, workers := range []int{1, 2, 4} {
		var wg sync.WaitGroup
		errs := make([]string, len(jobs))
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				rep, err := core.AnalyzeSources(context.Background(), g.Name, cpp.MapSource(g.Sources), g.CFiles,
					core.Options{Workers: workers, Policy: j.pol, Cache: c})
				switch {
				case err != nil:
					errs[i] = err.Error()
				case rep.Module != stored:
					errs[i] = "compiled a new module"
				case render(rep, j.sarif) != want[i]:
					errs[i] = "report differs from a cold run"
				}
			}(i, j)
		}
		wg.Wait()
		for i, e := range errs {
			if e != "" {
				t.Errorf("workers %d, %s: %s", workers, fmt.Sprintf("policy %v sarif %v", jobs[i].pol != nil, jobs[i].sarif), e)
			}
		}
	}
}

// TestModuleTierRenderShared renders the module two analyses share from
// two goroutines at once (run it under -race): rendering reads the SSA
// names lowering assigned and writes nothing, so both renders, and the
// render of a cold run's own module, are the same bytes.
func TestModuleTierRenderShared(t *testing.T) {
	g := split130(1)
	want := fresh(t, g.Name, g.Sources, g.CFiles, core.Options{}).Module.String()
	if !strings.Contains(want, "%t") {
		t.Fatal("the module renders no SSA name")
	}
	c := core.NewCache()
	fresh(t, g.Name, g.Sources, g.CFiles, core.Options{Cache: c})
	var wg sync.WaitGroup
	got := make([]string, 2)
	mods := make([]*ir.Module, 2)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := core.AnalyzeSources(context.Background(), g.Name, cpp.MapSource(g.Sources), g.CFiles, core.Options{Cache: c})
			if err != nil {
				t.Error(err)
				return
			}
			mods[i], got[i] = rep.Module, rep.Module.String()
		}(i)
	}
	wg.Wait()
	if mods[0] == nil || mods[0] != mods[1] {
		t.Fatal("the analyses did not share one module")
	}
	for i, s := range got {
		if s != want {
			t.Errorf("render %d differs from a cold module's", i)
		}
	}
}
