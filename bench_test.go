// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out:
//
//	BenchmarkTable1_*                     — Table 1: full SafeFlow pipeline per system
//	BenchmarkFigure1_ControlLoop/*        — Figure 1: closed-loop Simplex periods
//	BenchmarkFigure2_Analysis             — Figure 2: the running example end to end
//	BenchmarkFigure3_InitCheck            — Figure 3: the bootstrap overlap check
//	BenchmarkAblation_StaticVsDynamicTaint — A-1: zero-overhead static vs run-time tracking
//	BenchmarkAblation_SummaryVsExponential — A-2: ESP summaries vs per-call-path phase 3
//	BenchmarkAblation_PointsToModes        — A-4: subset vs unification alias analysis
//	BenchmarkSessionUpdate_Split130        — incremental edit+revert on the split 130-unit system
//
// Run with: go test -bench=. -benchmem
package safeflow_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/dyntaint"
	"safeflow/internal/frontend"
	"safeflow/internal/interp"
	"safeflow/internal/plant"
	"safeflow/internal/pointsto"
	"safeflow/pkg/safeflow"
	"safeflow/pkg/simplexrt"
)

// ---------------------------------------------------------------------------
// Table 1

func benchmarkSystem(b *testing.B, sys corpus.System, opts core.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Analyze(opts)
		if err != nil {
			b.Fatalf("analyze: %v", err)
		}
		if len(rep.ErrorsData) != sys.Expected.Errors ||
			len(rep.Warnings) != sys.Expected.Warnings ||
			len(rep.ErrorsControlOnly) != sys.Expected.FalsePositives {
			b.Fatalf("%s: counts diverged from Table 1: E=%d W=%d FP=%d",
				sys.Name, len(rep.ErrorsData), len(rep.Warnings), len(rep.ErrorsControlOnly))
		}
	}
}

func BenchmarkTable1_IP(b *testing.B) {
	benchmarkSystem(b, corpus.IP(), core.Options{Cache: core.NewCache()})
}

func BenchmarkTable1_GenericSimplex(b *testing.B) {
	benchmarkSystem(b, corpus.GenericSimplex(), core.Options{Cache: core.NewCache()})
}

func BenchmarkTable1_DoubleIP(b *testing.B) {
	benchmarkSystem(b, corpus.DoubleIP(), core.Options{Cache: core.NewCache()})
}

// ---------------------------------------------------------------------------
// Parallel pipeline: worker counts, batch fan-out, and stored verdicts.
// The Workers1/WorkersMax pairs record the intra-pipeline speedup; the
// AnalyzeAll pair records the batch fan-out speedup; the SummaryCache pair
// records the warm-run speedup from taking the stored phase-3 verdict. The
// core variants run without a cache except the cache benchmarks
// themselves, so they measure the work they name; the batch pair goes
// through the public API and its process cache.

func BenchmarkParallel_IP_Workers1(b *testing.B) {
	benchmarkSystem(b, corpus.IP(), core.Options{Workers: 1})
}

func BenchmarkParallel_IP_WorkersMax(b *testing.B) {
	benchmarkSystem(b, corpus.IP(), core.Options{Workers: 0})
}

func BenchmarkParallel_GenericSimplex_Workers1(b *testing.B) {
	benchmarkSystem(b, corpus.GenericSimplex(), core.Options{Workers: 1})
}

func BenchmarkParallel_GenericSimplex_WorkersMax(b *testing.B) {
	benchmarkSystem(b, corpus.GenericSimplex(), core.Options{Workers: 0})
}

func BenchmarkParallel_DoubleIP_Workers1(b *testing.B) {
	benchmarkSystem(b, corpus.DoubleIP(), core.Options{Workers: 1})
}

func BenchmarkParallel_DoubleIP_WorkersMax(b *testing.B) {
	benchmarkSystem(b, corpus.DoubleIP(), core.Options{Workers: 0})
}

func table1Jobs(b *testing.B) []safeflow.Job {
	b.Helper()
	systems := corpus.All()
	jobs := make([]safeflow.Job, len(systems))
	for i, sys := range systems {
		src, err := sys.SourceMap()
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = safeflow.Job{
			Name: sys.Name, Sources: src, CFiles: sys.CFiles,
		}
	}
	return jobs
}

func checkBatch(b *testing.B, results []safeflow.Result) {
	b.Helper()
	for i, sys := range corpus.All() {
		if results[i].Err != nil {
			b.Fatalf("%s: %v", sys.Name, results[i].Err)
		}
		rep := results[i].Report
		if len(rep.ErrorsData) != sys.Expected.Errors ||
			len(rep.Warnings) != sys.Expected.Warnings ||
			len(rep.ErrorsControlOnly) != sys.Expected.FalsePositives {
			b.Fatalf("%s: counts diverged from Table 1", sys.Name)
		}
	}
}

func BenchmarkParallel_AnalyzeAll(b *testing.B) {
	jobs := table1Jobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkBatch(b, safeflow.AnalyzeAll(jobs))
	}
}

func BenchmarkParallel_AnalyzeAll_Serial(b *testing.B) {
	jobs := table1Jobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := make([]safeflow.Result, len(jobs))
		for j, job := range jobs {
			rep, err := safeflow.AnalyzeContext(context.Background(), job.Name, job.Sources, job.CFiles, job.Options)
			results[j] = safeflow.Result{Name: job.Name, Report: rep, Err: err}
		}
		checkBatch(b, results)
	}
}

func BenchmarkParallel_SummaryCache(b *testing.B) {
	sys := corpus.GenericSimplex()
	b.Run("cold", func(b *testing.B) {
		benchmarkSystem(b, sys, core.Options{})
	})
	// Every iteration after the first takes the phase-3 verdict its
	// predecessor stored.
	b.Run("warm", func(b *testing.B) {
		benchmarkSystem(b, sys, core.Options{Cache: core.NewCache()})
	})
}

// BenchmarkParallel_PhaseThree isolates phases 1–3: the module is
// compiled once, and each iteration re-runs them on it. A module handed
// in without its sources has no module key, so no run takes or stores a
// verdict.
func BenchmarkParallel_PhaseThree(b *testing.B) {
	sys := corpus.GenericSimplex()
	src, err := sys.Sources()
	if err != nil {
		b.Fatal(err)
	}
	res, err := frontend.Compile(context.Background(), sys.Name, src, sys.CFiles, frontend.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.AnalyzeModule(context.Background(), sys.Name, res, core.Options{})
		if err != nil || len(rep.ErrorsData) != sys.Expected.Errors {
			b.Fatalf("counts diverged")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 1

func BenchmarkFigure1_ControlLoop(b *testing.B) {
	cases := []struct {
		name  string
		fault simplexrt.FaultMode
	}{
		{"healthy", simplexrt.FaultNone},
		{"sign_flip", simplexrt.FaultSignFlip},
		{"saturate", simplexrt.FaultSaturate},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := simplexrt.Run(simplexrt.Config{
					Steps: 1000, Fault: tc.fault, FaultStep: 500, ShmKey: 0x7000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if tr.Diverged {
					b.Fatalf("monitored loop diverged under %s", tc.name)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 2 and Figure 3

func BenchmarkFigure2_Analysis(b *testing.B) {
	src, err := os.ReadFile("testdata/figure2.c")
	if err != nil {
		b.Fatal(err)
	}
	text := string(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := safeflow.AnalyzeString("figure2", text, safeflow.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.ErrorsData) != 1 {
			b.Fatalf("figure2 errors = %d, want 1", len(rep.ErrorsData))
		}
	}
}

func BenchmarkFigure3_InitCheck(b *testing.B) {
	simplexrt.ResetSharedMemory()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := simplexrt.Run(simplexrt.Config{Steps: 1, ShmKey: 0x7100})
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}

// ---------------------------------------------------------------------------
// Ablation A-1: static (zero-overhead) vs run-time taint tracking

func ablationLoops(b *testing.B) (*dyntaint.PlainLoop, *dyntaint.TrackedLoop, []float64) {
	b.Helper()
	p := plant.DefaultPendulum()
	A, B := p.Linearize()
	ad, bd := plant.Discretize(A, B, 0.01)
	k, err := plant.DLQR(ad, bd, plant.Eye(4), 1.0)
	if err != nil {
		b.Fatal(err)
	}
	kMat := plant.NewMat(1, 4)
	for j, v := range k {
		kMat.Set(0, j, v)
	}
	pLyap, err := plant.DLyap(ad.Sub(bd.Mul(kMat)), plant.Eye(4))
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.01, 0, 0.05, 0}
	c := pLyap.Quad(x) * 4
	plain := &dyntaint.PlainLoop{KSafe: k, P: pLyap, Ad: ad, Bd: bd, C: c, UMax: 20}
	tracked := &dyntaint.TrackedLoop{KSafe: k, P: pLyap, Ad: ad, Bd: bd, C: c, UMax: 20}
	return plain, tracked, x
}

func BenchmarkAblation_StaticVsDynamicTaint(b *testing.B) {
	// Full decision step (control law + envelope monitor + critical sink).
	plain, tracked, x := ablationLoops(b)
	b.Run("full_step_plain", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink = plain.Step(x, 0.3)
		}
		_ = sink
	})
	b.Run("full_step_tracked", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			u, err := tracked.Step(x, 0.3)
			if err != nil {
				b.Fatal(err)
			}
			sink = u
		}
		_ = sink
	})

	// Isolated control-law arithmetic over a wide state: the per-value
	// provenance bookkeeping the run-time approach pays on every operation
	// of the hot control path.
	const dim = 64
	gains := make([]float64, dim)
	state := make([]float64, dim)
	for i := range gains {
		gains[i] = 1.0 / float64(i+1)
		state[i] = 0.01 * float64(i)
	}
	b.Run("law_plain", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			u := 0.0
			for j := 0; j < dim; j++ {
				u -= gains[j] * state[j]
			}
			sink = u
		}
		_ = sink
	})
	b.Run("law_tracked", func(b *testing.B) {
		b.ReportAllocs()
		tstate := make([]dyntaint.Value, dim)
		for j := range tstate {
			tstate[j] = dyntaint.Core(state[j])
		}
		var sink dyntaint.Value
		for i := 0; i < b.N; i++ {
			u := dyntaint.Core(0)
			for j := 0; j < dim; j++ {
				u = dyntaint.Sub(u, dyntaint.Scale(gains[j], tstate[j]))
			}
			if err := dyntaint.CheckCritical("law", u); err != nil {
				b.Fatal(err)
			}
			sink = u
		}
		_ = sink
	})
}

// ---------------------------------------------------------------------------
// Ablation A-2: summaries vs per-call-path re-analysis

func BenchmarkAblation_SummaryVsExponential(b *testing.B) {
	sys := corpus.DoubleIP()
	b.Run("summaries", func(b *testing.B) {
		// Cache off: the ablation measures the summary algorithm itself,
		// not warm-start seeding from a previous iteration.
		benchmarkSystem(b, sys, core.Options{})
	})
	b.Run("per_call_path", func(b *testing.B) {
		benchmarkSystem(b, sys, core.Options{Exponential: true})
	})
}

// ---------------------------------------------------------------------------
// Ablation A-4: alias-analysis modes

func BenchmarkAblation_PointsToModes(b *testing.B) {
	sys := corpus.GenericSimplex()
	b.Run("subset", func(b *testing.B) {
		benchmarkSystem(b, sys, core.Options{PointsTo: pointsto.ModeSubset})
	})
	b.Run("unify", func(b *testing.B) {
		benchmarkSystem(b, sys, core.Options{PointsTo: pointsto.ModeUnify})
	})
}

// ---------------------------------------------------------------------------
// Reference interpreter: the corpus IP core executed against a simulated
// world (each iteration runs the full 6000-period mission).

func BenchmarkInterp_CorpusIP(b *testing.B) {
	sys := corpus.IP()
	src, err := sys.Sources()
	if err != nil {
		b.Fatal(err)
	}
	res, err := frontend.Compile(context.Background(), sys.Name, src, sys.CFiles, frontend.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := interp.New(res.Module, benchWorld{})
		if _, err := m.RunMain(); err != nil {
			b.Fatal(err)
		}
	}
}

type benchWorld struct{}

func (benchWorld) ReadSensor(int) float64 { return 0.001 }
func (benchWorld) WriteDA(int, float64)   {}
func (benchWorld) Wait(float64)           {}

// BenchmarkSessionUpdate_Split130 measures Session.Update on the split
// 130-unit system: each iteration applies one seeded single-function edit
// and then reverts it, two updates per op. Every update recompiles the
// edited unit, relinks through the session's slot table and re-solves
// the edit's invalidated cone.
func BenchmarkSessionUpdate_Split130(b *testing.B) {
	raw := corpus.Generate(1, corpus.MaxShape)
	g := corpus.Split(raw)
	sess, _, err := safeflow.OpenContext(context.Background(), g.Name, g.Sources, g.CFiles, safeflow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	type change struct{ unit, edited, base string }
	var changes []change
	for seed := int64(1); len(changes) < 32; seed++ {
		for _, e := range corpus.GenerateEdits(raw, seed, 1) {
			for _, cf := range g.CFiles {
				if e.Kind != corpus.EditNoop && strings.Contains(g.Sources[cf], e.Old) {
					changes = append(changes, change{cf, strings.Replace(g.Sources[cf], e.Old, e.New, 1), g.Sources[cf]})
					break
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := changes[i%len(changes)]
		for _, text := range []string{c.edited, c.base} {
			if _, st, err := sess.UpdateContext(context.Background(), map[string]string{c.unit: text}); err != nil || !st.Incremental {
				b.Fatalf("update of %s: incremental=%v err=%v", c.unit, st.Incremental, err)
			}
		}
	}
}

// BenchmarkParallel_Phases13 isolates phases 1-3 (no frontend) per corpus
// system: the module is compiled once outside the timer and every
// iteration re-analyzes it cold (DisableCache). This is the
// allocation-profile baseline the alloc-regression tests pin against.
func BenchmarkParallel_Phases13(b *testing.B) {
	for _, sys := range corpus.All() {
		sys := sys
		b.Run(sys.Name, func(b *testing.B) {
			src, err := sys.Sources()
			if err != nil {
				b.Fatal(err)
			}
			res, err := frontend.Compile(context.Background(), sys.Name, src, sys.CFiles, frontend.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := core.AnalyzeModule(context.Background(), sys.Name, res, core.Options{})
				if err != nil || len(rep.ErrorsData) != sys.Expected.Errors {
					b.Fatalf("counts diverged")
				}
			}
		})
	}
}
