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
// deterministic, and the run's vfg_transfers metric reports it. Seed 3's
// system has deeper stage bodies, so its bound is its own.
//
// Rounds after the first solve only stale units, so a cold run of the
// seed-1 system, where no load reads a cell another unit writes later,
// solves each of its 129 units once, in one round.
func TestVFGTransfersPerInstr(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		maxRatio float64
	}{{1, 1.6}, {3, 2.0}} {
		g := corpus.Split(corpus.Generate(tc.seed, corpus.MaxShape))
		res, err := frontend.Compile(context.Background(), g.Name, cpp.MapSource(g.Sources), g.CFiles, frontend.Options{})
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
			t.Fatalf("seed %d: no unit was solved", tc.seed)
		}
		ratio := float64(v.Transfers) / float64(v.SweptInstrs)
		t.Logf("seed %d: %d solves in %d rounds; %d transfers over %d swept instructions = %.3f per instruction",
			tc.seed, v.UnitsAnalyzed, v.Rounds, v.Transfers, v.SweptInstrs, ratio)
		if ratio > tc.maxRatio {
			t.Errorf("seed %d: %.3f transfers per instruction, want <= %.1f", tc.seed, ratio, tc.maxRatio)
		}
		if tc.seed == 1 && (v.UnitsAnalyzed != 129 || v.Rounds != 1) {
			t.Errorf("seed 1: %d solves in %d rounds, want 129 in 1", v.UnitsAnalyzed, v.Rounds)
		}

		opts := core.Options{Workers: 1, Stats: true}
		rep := fresh(t, g.Name, g.Sources, g.CFiles, opts)
		if rep.Metrics == nil || rep.Metrics.VFGTransfers != v.Transfers {
			t.Errorf("seed %d: vfg_transfers metric = %+v, want %d", tc.seed, rep.Metrics, v.Transfers)
		}
	}
}
