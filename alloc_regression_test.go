// Allocation-regression pins for the phase 1-3 hot path. The constants
// are the seed tree's -benchmem numbers for BenchmarkParallel_Phases13
// (recorded in EXPERIMENTS.md, "PR 3 — allocation profile"); the interned
// bitset taint lattice and slice-indexed solver must stay at least 40%
// below them. Allocation counts are scheduling-independent on this
// workload (unlike wall time), so the pin is stable in CI.
package safeflow_test

import (
	"context"
	"strings"
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

// Update pin for the split 130-unit system (seed 1): allocations per
// Session.Update at one worker, averaged over seeded single-function
// edits each followed by its revert. Sharing each function's def-use
// index between phases 1 and 3 and across updates, immutable shm facts
// and shape checks that render no type took an update from about 30k
// allocations to about 15k (go1.24, linux/amd64); the bound sits well
// below the former.
const sessionUpdateSplit130MaxAllocs = 21_000

func TestAllocRegression_SessionUpdateSplit130(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short mode")
	}
	raw := corpus.Generate(1, corpus.MaxShape)
	g := corpus.Split(raw)
	type change struct{ unit, edited, base string }
	var changes []change
	for seed := int64(1); len(changes) < 8; seed++ {
		for _, e := range corpus.GenerateEdits(raw, seed, 1) {
			for _, cf := range g.CFiles {
				if e.Kind != corpus.EditNoop && strings.Contains(g.Sources[cf], e.Old) {
					changes = append(changes, change{cf, strings.Replace(g.Sources[cf], e.Old, e.New, 1), g.Sources[cf]})
					break
				}
			}
		}
	}
	ctx := context.Background()
	sess, _, err := core.OpenSession(ctx, g.Name, g.Sources, g.CFiles, core.Options{Workers: 1, Cache: core.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := changes[i%len(changes)]
			for _, text := range []string{c.edited, c.base} {
				if _, st, err := sess.Update(ctx, map[string]string{c.unit: text}); err != nil || !st.Incremental {
					b.Fatalf("update of %s: incremental=%v err=%v", c.unit, st.Incremental, err)
				}
			}
		}
	})
	perUpdate := r.AllocsPerOp() / 2
	if perUpdate > sessionUpdateSplit130MaxAllocs {
		t.Errorf("%d allocs per update, want ≤ %d", perUpdate, sessionUpdateSplit130MaxAllocs)
	}
	t.Logf("%d allocs, %d B per update", perUpdate, r.AllocedBytesPerOp()/2)
}

// Warm-repeat pin for the split 130-unit system (seed 1): allocations of
// a memory-warm repeat analysis at one worker, after a first run filled
// the Cache. The repeat preprocesses and parses nothing, reuses the
// compiled module and the facts the first run derived from it (call
// graph, shm facts, restriction violations, points-to, def-use indexes)
// and takes phase 3's stored verdict. Reusing the module instead of type
// checking, lowering and promoting again took the repeat from 66.6k
// allocations and 7.8 MB to 14.1k and 3.6 MB; reusing the facts took it
// to 6.0k and 2.5 MB; skipping the preprocessor for units whose files are
// unchanged took it to 2.7k and 0.45 MB; taking the stored verdict
// instead of replaying a stored state, and scanning files without a
// safeflow:ignore directive without allocating, took it to 654 and
// 0.12 MB (go1.24, linux/amd64). The bounds sit 1.5× above the latter,
// below a repeat that replays phase 3.
const (
	warmRepeatSplit130MaxAllocs = 980
	warmRepeatSplit130MaxBytes  = 183_000
)

func TestAllocRegression_WarmRepeatSplit130(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short mode")
	}
	g := corpus.Split(corpus.Generate(1, corpus.MaxShape))
	src := cpp.MapSource(g.Sources)
	ctx := context.Background()
	opts := core.Options{Workers: 1, Cache: core.NewCache()}
	if _, err := core.AnalyzeSources(ctx, g.Name, src, g.CFiles, opts); err != nil {
		t.Fatal(err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeSources(ctx, g.Name, src, g.CFiles, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
	if allocs > warmRepeatSplit130MaxAllocs {
		t.Errorf("%d allocs/op, want ≤ %d", allocs, warmRepeatSplit130MaxAllocs)
	}
	if bytes > warmRepeatSplit130MaxBytes {
		t.Errorf("%d B/op, want ≤ %d", bytes, warmRepeatSplit130MaxBytes)
	}
	t.Logf("%d allocs/op, %d B/op, %v/op", allocs, bytes, time.Duration(r.NsPerOp()))
}
