// Allocation-regression pins for the phase 1-3 hot path. The constants
// are the seed tree's -benchmem numbers for BenchmarkParallel_Phases13
// (recorded in EXPERIMENTS.md, "PR 3 — allocation profile"); the interned
// bitset taint lattice and slice-indexed solver must stay at least 40%
// below them. Allocation counts are scheduling-independent on this
// workload (unlike wall time), so the pin is stable in CI.
package safeflow_test

import (
	"context"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/frontend"
)

// Seed baselines: allocs/op and B/op of phases 1-3 per corpus system
// before the bitset lattice rewrite (map-backed Taint, map-indexed
// solver), measured with -benchtime 20x on the reference host.
var seedAllocBaseline = map[string]struct {
	allocs int64
	bytes  int64
}{
	"IP":              {allocs: 11005, bytes: 998832},
	"Generic Simplex": {allocs: 14061, bytes: 1283799},
	"Double IP":       {allocs: 19393, bytes: 1851842},
}

func TestAllocRegression_Phases13(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short mode")
	}
	const maxRatio = 0.6 // ISSUE 3 acceptance: ≥40% fewer allocations than seed
	for _, sys := range corpus.All() {
		sys := sys
		base, ok := seedAllocBaseline[sys.Name]
		if !ok {
			t.Errorf("no seed baseline recorded for corpus system %q", sys.Name)
			continue
		}
		t.Run(sys.Name, func(t *testing.T) {
			src, err := sys.Sources()
			if err != nil {
				t.Fatal(err)
			}
			res, err := frontend.Compile(context.Background(), sys.Name, src, sys.CFiles, frontend.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep, err := core.AnalyzeModule(context.Background(), sys.Name, res, core.Options{DisableCache: true})
					if err != nil || len(rep.ErrorsData) != sys.Expected.Errors {
						b.Fatalf("counts diverged")
					}
				}
			})
			allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
			if lim := int64(float64(base.allocs) * maxRatio); allocs > lim {
				t.Errorf("%s: %d allocs/op, want ≤ %d (0.6× seed %d)", sys.Name, allocs, lim, base.allocs)
			}
			if lim := int64(float64(base.bytes) * maxRatio); bytes > lim {
				t.Errorf("%s: %d B/op, want ≤ %d (0.6× seed %d)", sys.Name, bytes, lim, base.bytes)
			}
			t.Logf("%s: %d allocs/op, %d B/op (seed %d allocs, %d B)",
				sys.Name, allocs, bytes, base.allocs, base.bytes)
		})
	}
}
