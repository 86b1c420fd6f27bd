package core_test

import (
	"context"
	"testing"

	"safeflow/internal/callgraph"
	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/pointsto"
	"safeflow/internal/shmflow"
	"safeflow/internal/vfg"
)

// The value-flow solver sweeps instructions in forward order, so on the
// split 130-unit system it evaluates about 1.4 transfers per instruction
// per solver pass; a last-in-first-out worklist, which walks each
// function backwards, needs about 3.7. At Workers 1 the count is
// deterministic, and the run's vfg_transfers metric reports it.
func TestVFGTransfersPerInstr(t *testing.T) {
	g := corpus.Split(corpus.Generate(1, corpus.MaxShape))
	res, err := frontend.Compile(context.Background(), g.Name, cpp.MapSource(g.Sources), g.CFiles, frontend.Options{DisableParseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cg := callgraph.New(res.Module)
	v := vfg.Run(vfg.Config{
		Module: res.Module, CG: cg, SF: shmflow.Analyze(res.Module, cg),
		PTS:        pointsto.Analyze(res.Module, pointsto.ModeSubset),
		AssertVars: res.AssertVars, Workers: 1,
	})
	if v.SweptInstrs == 0 {
		t.Fatal("no unit was solved")
	}
	ratio := float64(v.Transfers) / float64(v.SweptInstrs)
	t.Logf("%d transfers over %d swept instructions = %.3f per instruction", v.Transfers, v.SweptInstrs, ratio)
	if ratio > 1.6 {
		t.Errorf("%.3f transfers per instruction, want <= 1.6", ratio)
	}

	opts := core.Options{Workers: 1, Stats: true, DisableCache: true, DisableParseCache: true}
	rep := fresh(t, g.Name, g.Sources, g.CFiles, opts)
	if rep.Metrics == nil || rep.Metrics.VFGTransfers != v.Transfers {
		t.Errorf("vfg_transfers metric = %+v, want %d", rep.Metrics, v.Transfers)
	}
}
