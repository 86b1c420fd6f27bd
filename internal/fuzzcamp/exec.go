// The executor: run one input through the analyzer and check the
// standing correctness oracles. The primary run is configured for
// reproducibility — recovering mode, no cache, no disk tier — so an
// input's verdicts and coverage signature are pure functions of its
// bytes. The cache-temperature oracle then runs the input and a mutated
// sibling through the campaign's Cache, whose verdicts must not depend
// on what it holds.

package fuzzcamp

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"safeflow/internal/callgraph"
	"safeflow/internal/core"
	"safeflow/internal/cpp"
	"safeflow/internal/ctoken"
	"safeflow/internal/diag"
	"safeflow/internal/faultinject"
	"safeflow/internal/frontend"
	"safeflow/internal/interp"
	"safeflow/internal/report"
	"safeflow/internal/shmflow"
)

// Oracle names a standing invariant the campaign enforces.
const (
	// OracleDeterminism: rendered text and JSON reports are
	// byte-identical at every worker count.
	OracleDeterminism = "determinism"
	// OracleDynamic: every critical sink that observes tainted data
	// under concrete execution appears in the static data-flow errors
	// (dynamic ⊆ static, the paper's soundness direction).
	OracleDynamic = "dynamic-subset-static"
	// OracleDegraded: under injected front-end faults the degraded run
	// stays sound — faulted units are diagnosed, the report never
	// claims clean, and surviving-unit tainted sinks stay flagged.
	OracleDegraded = "degraded-soundness"
	// OracleNoPanic: no input may drive any pipeline phase to a panic
	// (Report.Internal must stay empty in recovering mode).
	OracleNoPanic = "no-internal-panic"
	// OracleIncremental: a session update (incremental re-analysis of an
	// edited input) renders byte-identically to a from-scratch analysis
	// of the edited sources.
	OracleIncremental = "incremental-equivalence"
	// OracleCacheTemperature: an analysis through a Cache renders
	// byte-identically to a cold one, whether it fills the Cache or hits
	// it, and so does a mutated sibling of the input run through the same
	// Cache afterwards (a stale hit would show there).
	OracleCacheTemperature = "cache-temperature"
)

// Violation is one oracle failure on one input.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

// Error renders the violation.
func (v *Violation) Error() string { return fmt.Sprintf("%s: %s", v.Oracle, v.Detail) }

// Plant deliberately weakens the executor's oracles' view of the
// analyzer — the campaign's canary mechanism. A planted executor
// simulates a soundness bug without touching the analyzer itself, so
// tests can verify end-to-end that the campaign finds, minimizes, and
// persists a crasher for a real bug class.
type Plant int

const (
	// PlantNone is the honest executor.
	PlantNone Plant = iota
	// PlantDropMainErrors drops static data-flow errors positioned in
	// main.c before the dynamic-⊆-static comparison, simulating an
	// analyzer that silently loses error dependencies at the sink.
	PlantDropMainErrors
	// PlantStaleHit hands the mutated sibling of the cache-temperature
	// oracle its parent's warm report instead of analyzing it,
	// simulating a cache key that misses an input the sibling changed.
	PlantStaleHit
)

// ParsePlant maps a -plant flag value to a Plant.
func ParsePlant(s string) (Plant, error) {
	switch s {
	case "", "none":
		return PlantNone, nil
	case "drop-main-errors":
		return PlantDropMainErrors, nil
	case "stale-hit":
		return PlantStaleHit, nil
	}
	return PlantNone, fmt.Errorf("unknown plant %q (want none, drop-main-errors or stale-hit)", s)
}

// Executor runs inputs and checks oracles.
type Executor struct {
	// Workers are the worker counts compared by the determinism oracle
	// (default 1 and 2; the first is the signature/verdict run).
	Workers []int
	// MaxSteps bounds the taint-tracking interpretation of one input
	// (default 2,000,000; mutants may loop forever).
	MaxSteps int64
	// Plant weakens the oracles for canary runs (default PlantNone).
	Plant Plant
	// Cache is the campaign's Cache, which the cache-temperature oracle
	// runs every input through; Run sets it when nil. Nil gives each
	// Execute a Cache of its own.
	Cache *core.Cache
}

// execWorld is the interpreter environment for campaign inputs: a
// constant mid-range sensor, no actuator, no time.
type execWorld struct{}

func (execWorld) ReadSensor(ch int) float64 { return 0.5 }
func (execWorld) WriteDA(ch int, v float64) {}
func (execWorld) Wait(seconds float64)      {}

// ExecResult is one input's execution outcome.
type ExecResult struct {
	Sig       Signature  // coverage signature of the Workers[0] run
	Violation *Violation // nil when every oracle held
	Report    *core.Report
}

func (e *Executor) workers() []int {
	if len(e.Workers) == 0 {
		return []int{1, 2}
	}
	return e.Workers
}

func (e *Executor) maxSteps() int64 {
	if e.MaxSteps <= 0 {
		return 2_000_000
	}
	return e.MaxSteps
}

// analyze runs one recovering, cache-free analysis of the sources.
func analyze(ctx context.Context, in Input, sources map[string]string, workers int, stats bool) (*core.Report, error) {
	return analyzeWith(ctx, in, sources, core.Options{Workers: workers, Stats: stats})
}

// analyzeWith runs one recovering analysis of the sources under opts.
func analyzeWith(ctx context.Context, in Input, sources map[string]string, opts core.Options) (*core.Report, error) {
	opts.Recover = true
	return core.AnalyzeSources(ctx, in.Name, cpp.MapSource(sources), in.CFiles, opts)
}

// render produces the byte-exact forms the determinism oracle compares.
func render(rep *core.Report) (string, error) {
	var text, js strings.Builder
	report.Write(&text, rep)
	if err := report.WriteJSON(&js, rep); err != nil {
		return "", err
	}
	return text.String() + "\x00" + js.String(), nil
}

// Execute runs the input through the full oracle battery. A non-nil
// error means the campaign itself failed (cancellation, render
// failure), not that the input found a bug — bugs come back as
// ExecResult.Violation.
func (e *Executor) Execute(ctx context.Context, in Input) (*ExecResult, error) {
	// Primary run: verdicts, coverage signature, panic oracle.
	base, err := analyze(ctx, in, in.Sources, e.workers()[0], true)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// A structured front-end rejection (e.g. unreadable input) is a
		// legitimate analyzer answer: coarse signature, no violation.
		return &ExecResult{Sig: Signature("reject:" + errClass(err))}, nil
	}
	res := &ExecResult{Sig: SignatureOf(base), Report: base}
	if len(base.Internal) > 0 {
		res.Violation = &Violation{Oracle: OracleNoPanic,
			Detail: fmt.Sprintf("recovering run recorded internal errors: %v", base.Internal)}
		return res, nil
	}

	// Oracle 1: worker-count byte determinism of both rendered forms.
	// The metrics snapshot is execution-dependent by design (wall times,
	// goroutine peaks), so it is stripped before the byte comparison.
	noStats := *base
	noStats.Metrics = nil
	baseBytes, err := render(&noStats)
	if err != nil {
		return nil, err
	}
	for _, w := range e.workers()[1:] {
		rep, err := analyze(ctx, in, in.Sources, w, false)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			res.Violation = &Violation{Oracle: OracleDeterminism,
				Detail: fmt.Sprintf("workers=%d failed where workers=%d succeeded: %v", w, e.workers()[0], err)}
			return res, nil
		}
		rep.Metrics = nil // stats were only collected on the primary run
		b, err := render(rep)
		if err != nil {
			return nil, err
		}
		if b != baseBytes {
			res.Violation = &Violation{Oracle: OracleDeterminism,
				Detail: fmt.Sprintf("report bytes differ between workers=%d and workers=%d", e.workers()[0], w)}
			return res, nil
		}
	}

	// Oracle: cache temperature — cold, filling and hitting runs, and a
	// sibling through the same Cache, render the same bytes.
	if v, err := e.checkCacheTemperature(ctx, in, baseBytes); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	} else if v != nil {
		res.Violation = v
		return res, nil
	}

	// Oracle: incremental equivalence — patching a session must equal a
	// from-scratch analysis of the edited sources, byte for byte.
	if v, err := e.checkIncremental(ctx, in); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	} else if v != nil {
		res.Violation = v
		return res, nil
	}

	// Dynamic taint on strictly-compiling inputs (the interpreter needs
	// a complete module).
	var hot map[ctoken.Pos]bool
	if cres, cerr := frontend.Compile(context.Background(), in.Name, cpp.MapSource(in.Sources), in.CFiles, frontend.Options{}); cerr == nil {
		m := interp.New(cres.Module, execWorld{})
		m.MaxSteps = e.maxSteps()
		tr := m.EnableTaint(shmflow.Analyze(cres.Module, callgraph.New(cres.Module)))
		_, _ = m.RunMain() // traps and step exhaustion leave valid partial evidence
		hot = map[ctoken.Pos]bool{}
		for pos, h := range tr.TaintedAsserts() {
			if h {
				hot[pos] = true
			}
		}
		for pos, h := range tr.TaintedKills() {
			if h {
				hot[pos] = true
			}
		}

		// Oracle 2: dynamic ⊆ static on the unfaulted program.
		if v := e.checkInclusion(hot, base, nil); v != nil {
			res.Violation = v
			return res, nil
		}
	}

	// Oracle 3: degraded soundness under an injected front-end fault,
	// seeded from the input's content hash so the whole check replays.
	eligible := degradableUnits(in)
	if len(eligible) == 0 {
		return res, nil
	}
	faulted, faults := faultinject.Mutate(in.hashSeed(), in.Sources, eligible, 1)
	drep, err := analyze(ctx, in, faulted, e.workers()[0], false)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return res, nil // structured rejection of the faulted variant: not our oracle
	}
	if len(drep.Internal) > 0 {
		res.Violation = &Violation{Oracle: OracleNoPanic,
			Detail: fmt.Sprintf("faulted run (faults %v) recorded internal errors: %v", faults, drep.Internal)}
		return res, nil
	}
	skipped := map[string]bool{}
	for _, u := range diag.Units(drep.Diagnostics) {
		skipped[u] = true
	}
	for _, f := range faults {
		if !skipped[f.Unit] {
			res.Violation = &Violation{Oracle: OracleDegraded,
				Detail: fmt.Sprintf("injected fault %s produced no diagnostic for its unit", f)}
			return res, nil
		}
	}
	if drep.Degraded && drep.Clean() {
		res.Violation = &Violation{Oracle: OracleDegraded, Detail: "degraded run claims clean"}
		return res, nil
	}
	if v := e.checkInclusion(hot, drep, skipped); v != nil {
		v.Oracle = OracleDegraded
		res.Violation = v
		return res, nil
	}
	return res, nil
}

// checkIncremental opens a session on the input, applies two edits — a
// trailing comment (pure frontend churn, nothing invalidated) and a new
// top-level function (module and callgraph change) — and requires every
// patched report to render byte-identically to a from-scratch analysis
// of the same edited sources. Inputs the session's fast path cannot
// represent fall back internally; equivalence must hold either way.
func (e *Executor) checkIncremental(ctx context.Context, in Input) (*Violation, error) {
	if len(in.CFiles) == 0 {
		return nil, nil
	}
	opts := core.Options{
		Recover: true,
		Workers: e.workers()[0],
	}
	sess, _, err := core.OpenSession(ctx, in.Name, in.Sources, in.CFiles, opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, nil // structured rejection: nothing to compare
	}
	target := in.CFiles[0]
	cur := in.Clone()
	edits := []string{
		"\n/* incremental-oracle touch */\n",
		"\ndouble __incrProbe(double x)\n{\n    return x + 1.0;\n}\n",
	}
	for i, suffix := range edits {
		cur.Sources[target] += suffix
		rep, _, err := sess.Update(ctx, map[string]string{target: cur.Sources[target]})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, nil
		}
		want, err := analyze(ctx, cur, cur.Sources, e.workers()[0], false)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, nil
		}
		repBytes, err := render(stripMetrics(rep))
		if err != nil {
			return nil, err
		}
		wantBytes, err := render(stripMetrics(want))
		if err != nil {
			return nil, err
		}
		if repBytes != wantBytes {
			return &Violation{Oracle: OracleIncremental,
				Detail: fmt.Sprintf("update %d: patched report differs from from-scratch analysis of the edited sources", i)}, nil
		}
	}
	return nil, nil
}

// checkCacheTemperature runs the input through the campaign's Cache
// twice — the first run fills it, the second hits it — and requires both
// to render cold, the bytes of the primary run. Then a sibling of the
// input, one seeded mutation away and under the same system name, runs
// through the same Cache and must render what its own cold run renders:
// a cache key that missed what the mutation changed would hand it the
// input's verdicts.
func (e *Executor) checkCacheTemperature(ctx context.Context, in Input, cold string) (*Violation, error) {
	c := e.Cache
	if c == nil {
		c = core.NewCache()
	}
	opts := core.Options{Workers: e.workers()[0], Cache: c}
	var warm *core.Report
	for _, temp := range []string{"fill", "hit"} {
		rep, err := analyzeWith(ctx, in, in.Sources, opts)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return &Violation{Oracle: OracleCacheTemperature,
				Detail: fmt.Sprintf("the %s run through a cache failed where the cold run succeeded: %v", temp, err)}, nil
		}
		b, err := render(rep)
		if err != nil {
			return nil, err
		}
		if b != cold {
			return &Violation{Oracle: OracleCacheTemperature,
				Detail: fmt.Sprintf("the %s run through a cache renders differently from the cold run", temp)}, nil
		}
		warm = rep
	}

	sib := NewMutator(rand.New(rand.NewSource(in.hashSeed()))).Mutate(in, Input{})
	sib.Name = in.Name
	want, err := analyze(ctx, sib, sib.Sources, e.workers()[0], false)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, nil // structured rejection of the sibling: nothing to compare
	}
	got := warm
	if e.Plant != PlantStaleHit {
		if got, err = analyzeWith(ctx, sib, sib.Sources, opts); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return &Violation{Oracle: OracleCacheTemperature,
				Detail: fmt.Sprintf("sibling %s: the run through the input's cache failed where its cold run succeeded: %v", sib.Name, err)}, nil
		}
	}
	wantBytes, err := render(want)
	if err != nil {
		return nil, err
	}
	gotBytes, err := render(got)
	if err != nil {
		return nil, err
	}
	if gotBytes != wantBytes {
		return &Violation{Oracle: OracleCacheTemperature,
			Detail: fmt.Sprintf("sibling %s: the run through the input's cache renders differently from its cold run", sib.Name)}, nil
	}
	return nil, nil
}

// stripMetrics clears the execution-dependent metrics snapshot before a
// byte comparison.
func stripMetrics(rep *core.Report) *core.Report {
	c := *rep
	c.Metrics = nil
	return &c
}

// checkInclusion enforces dynamic ⊆ static: every dynamically tainted
// sink (outside skipped units) must appear in the report's data-flow
// errors. The plant hook filters the static side to simulate a
// soundness bug.
func (e *Executor) checkInclusion(hot map[ctoken.Pos]bool, rep *core.Report, skipped map[string]bool) *Violation {
	if len(hot) == 0 {
		return nil
	}
	static := map[ctoken.Pos]bool{}
	for _, ed := range rep.ErrorsData {
		if e.Plant == PlantDropMainErrors && ed.Pos.File == "main.c" {
			continue
		}
		static[ed.Pos] = true
	}
	var missing []string
	for pos := range hot {
		if skipped[pos.File] || static[pos] {
			continue
		}
		missing = append(missing, pos.String())
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	return &Violation{Oracle: OracleDynamic,
		Detail: fmt.Sprintf("dynamically tainted sinks missing from static data-flow errors: %s",
			strings.Join(missing, ", "))}
}

// degradableUnits picks the translation units the degraded-soundness
// oracle may fault: compiled units that carry neither the shminit
// annotation (dropping it legitimately blinds the analysis) nor main
// (it holds the sinks the inclusion check needs).
func degradableUnits(in Input) []string {
	var out []string
	for _, f := range in.CFiles {
		src, ok := in.Sources[f]
		if !ok {
			continue
		}
		if strings.Contains(src, "shminit") || strings.Contains(src, "int main") {
			continue
		}
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// errClass coarsely buckets an analysis error for reject signatures.
func errClass(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, ':'); i > 0 {
		return s[:i]
	}
	if len(s) > 32 {
		s = s[:32]
	}
	return s
}
