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
	"time"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
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
					rep, err := core.AnalyzeModule(context.Background(), sys.Name, res, core.Options{})
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

// Front-end pin for the split 130-unit system (seed 1): a compile at one
// worker without the parse cache, where every unit includes gen.h.
// Parsing each memoized header segment once per compile and sharing its
// declaration nodes across units took it from 34.4 MB and 377k
// allocations per compile to 9.6 MB and 84k (go1.24, linux/amd64); the
// bounds sit 1.5× above the latter, far below a per-unit header parse.
const (
	frontendSplit130MaxBytes  = 14_500_000
	frontendSplit130MaxAllocs = 125_000
)

func TestAllocRegression_FrontendSplit130(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short mode")
	}
	g := corpus.Split(corpus.Generate(1, corpus.MaxShape))
	opts := frontend.Options{Workers: 1}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := frontend.Compile(context.Background(), g.Name, cpp.MapSource(g.Sources), g.CFiles, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
	if bytes > frontendSplit130MaxBytes {
		t.Errorf("%d B/op, want ≤ %d", bytes, frontendSplit130MaxBytes)
	}
	if allocs > frontendSplit130MaxAllocs {
		t.Errorf("%d allocs/op, want ≤ %d", allocs, frontendSplit130MaxAllocs)
	}
	t.Logf("%d allocs/op, %d B/op, %v/op", allocs, bytes, time.Duration(r.NsPerOp()))
}
