// Package core orchestrates the complete SafeFlow analysis — the paper's
// three phases over the compiled IR of a core component:
//
//  1. shared-memory region and pointer identification (internal/shmflow),
//  2. language-restriction enforcement P1–P3/A1–A2 (internal/restrict),
//  3. unmonitored-access warnings and critical-data dependency errors
//     (internal/vfg), backed by the alias analysis (internal/pointsto).
//
// The Report it produces carries everything Table 1 of the paper reports
// per system: annotation counts, warnings, error dependencies, and the
// control-only dependencies that the paper's experience maps to false
// positives requiring manual inspection.
package core

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"safeflow/internal/cache"
	"safeflow/internal/callgraph"
	"safeflow/internal/cpp"
	"safeflow/internal/ctoken"
	"safeflow/internal/dataflow"
	"safeflow/internal/diag"
	"safeflow/internal/diskcache"
	"safeflow/internal/frontend"
	"safeflow/internal/guard"
	"safeflow/internal/ir"
	"safeflow/internal/irgen"
	"safeflow/internal/metrics"
	"safeflow/internal/pointsto"
	"safeflow/internal/policy"
	"safeflow/internal/restrict"
	"safeflow/internal/shmflow"
	"safeflow/internal/vfg"
)

// phaseHook, when non-nil, runs at the start of every pipeline phase
// with the phase and system names. It exists for fault-injection and
// cancellation tests (a hook that panics exercises the phase isolation;
// one that cancels a context exercises mid-run cancellation) and must
// stay nil in production use.
var (
	phaseHookMu sync.RWMutex
	phaseHook   func(phase, system string)
)

// SetPhaseHook installs (or, with nil, removes) the test-only phase
// hook. Tests that install a hook must remove it before finishing and
// must not run in parallel with other analyses.
func SetPhaseHook(f func(phase, system string)) {
	phaseHookMu.Lock()
	phaseHook = f
	phaseHookMu.Unlock()
}

// firePhaseHook invokes the hook inside the phase's panic-isolation
// scope, so an injected panic is indistinguishable from a real one.
func firePhaseHook(phase, system string) {
	phaseHookMu.RLock()
	f := phaseHook
	phaseHookMu.RUnlock()
	if f != nil {
		f(phase, system)
	}
}

// Options tune the analysis.
type Options struct {
	// PointsTo selects the alias-analysis solver (default ModeSubset, the
	// field-sensitive inclusion solver).
	PointsTo pointsto.Mode
	// Exponential switches phase 3 to the paper's unoptimized per-call-path
	// analysis (ablation A-2).
	Exponential bool
	// Roots names entry functions for phase 3 (default: functions without
	// callers). Names that do not resolve to a defined function are
	// reported as AnnotationErrors.
	Roots []string
	// Defines predefines preprocessor macros.
	Defines map[string]string
	// Workers bounds the concurrency of the frontend (translation units)
	// and of phase 3 (callgraph SCCs). 0 means runtime.GOMAXPROCS(0);
	// 1 runs sequentially. Reports are byte-identical at every setting.
	Workers int
	// Cache holds the in-memory tiers the run reads and fills: parsed
	// translation units, compiled modules, and the last converged phase-3
	// state of each system. When a clean compile of the same system name
	// and preprocessed units went through this Cache, the front end
	// returns its module instead of type checking and lowering again
	// (Report.Module is then shared), and phases 1–3 reuse the facts an
	// earlier run derived from it under the same points-to mode; when the
	// last converged analysis of the same system name and options through
	// this Cache ran over the same sources, phase 3 replays its stored
	// state instead of solving.
	// Nil runs cold: no parse or module tier, no persistent tier
	// (DiskCache is ignored) and an untracked phase 3. pkg/safeflow fills
	// a nil Cache with its process-wide one.
	Cache *Cache
	// DiskCache, when non-nil, adds a persistent content-addressed tier
	// below Cache's in-memory parse tier: parsed ASTs are written to the
	// store and read back across process restarts, so CLI warm starts and
	// daemon workers skip work a previous process already did. Every
	// entry is integrity-checked on read; a damaged entry is evicted and
	// recomputed (cache_corrupt_evictions), never trusted.
	DiskCache diskcache.CacheBackend
	// Stats collects run metrics (per-phase wall times, pipeline shape
	// counters, cache hit rates, peak goroutines) into Report.Metrics,
	// which the JSON report embeds under its versioned "metrics" key.
	Stats bool
	// Policy selects the compiled taint policy that drives phase 3's
	// seeding and sink checking (see internal/policy). Nil runs the
	// default simplex-shm policy and renders reports byte-identically to
	// builds that predate configurable policies; a non-nil policy adds
	// per-rule attribution to the text and JSON reports. The policy's
	// name and fingerprint join the key of the stored phase-3 state, so
	// two policies never share one.
	Policy *policy.Compiled
	// Recover enables graceful degradation: translation units that fail
	// to preprocess, lex, parse, or type-check are skipped with
	// structured diagnostics (Report.Diagnostics) instead of failing the
	// whole analysis, calls into their definitions are treated as
	// unknown-taint sources, and the report is marked Degraded (never
	// Clean). Off by default: the zero Options preserve the fail-stop
	// behavior library callers rely on; the safeflow CLI enables it
	// unless -strict is given.
	Recover bool

	// incrOpts, when non-nil, runs phase 3 incrementally against a
	// previous run's captured state (Session.Update sets it). Unexported:
	// the state is only valid for the exact module the session built, so
	// outside callers go through Session.
	incrOpts *vfg.IncrOptions
}

// Report is the complete analysis output for one system.
type Report struct {
	Name string
	// Module is the analyzed IR. A run through Options.Cache may share it
	// with every other run of the same sources through that Cache, at
	// once too, and Regions and Violations with every such run under the
	// same points-to mode: treat all three as read-only.
	Module  *ir.Module
	Regions []*shmflow.Region

	// AnnotationErrors are malformed or unresolvable annotations (phase 1).
	AnnotationErrors []error
	// Violations are restriction violations (phase 2).
	Violations []restrict.Violation
	// Warnings are unmonitored non-core value accesses (phase 3a) — the
	// paper reports these contain no false positives or negatives.
	Warnings []*vfg.Source
	// ErrorsData are critical-data dependencies with at least one data-flow
	// path from an unmonitored value (the paper's real error dependencies).
	ErrorsData []*vfg.ErrorDep
	// ErrorsControlOnly are dependencies established only through control
	// flow — the paper's false-positive class, flagged for manual
	// inspection with their value-flow traces.
	ErrorsControlOnly []*vfg.ErrorDep
	// Internal are panics recovered by the pipeline's isolation layer
	// (*guard.InternalError values carrying phase, unit, and stack). A
	// report with internal errors is never Clean: the crashed phase's
	// results may be partial, everything else is complete.
	Internal []error
	// Diagnostics are the structured front-end failures of a recovering
	// run (Options.Recover): one entry per lex/parse/typecheck/lower
	// error, attributed to the translation unit that was skipped because
	// of it. Sorted by (unit, phase, position, message).
	Diagnostics []diag.Diagnostic
	// Degraded marks a run in which one or more translation units were
	// skipped: the verdicts cover only the surviving units (with calls
	// into skipped definitions treated conservatively), so the report
	// never claims Clean.
	Degraded bool
	// Metrics is the run's instrumentation snapshot (Options.Stats);
	// nil when stats collection was off.
	Metrics *metrics.RunMetrics

	// PolicyName and PolicyFingerprint identify the taint policy the run
	// used (the default simplex-shm policy when Options.Policy was nil).
	PolicyName        string
	PolicyFingerprint string
	// PolicyExplicit marks a run with an explicitly configured policy.
	// Rule attribution appears in the text and JSON formats only then,
	// keeping default-run reports byte-identical to historic output;
	// SARIF (a new format) always attributes rules.
	PolicyExplicit bool
	// PolicyRules is the active policy's rule metadata, in stable order
	// (drives the SARIF rules array).
	PolicyRules []policy.RuleMeta
	// Suppressed is the audit trail of findings matched by inline
	// `// safeflow:ignore <rule-id> <reason>` directives: suppressed
	// findings move here instead of being dropped silently.
	Suppressed []SuppressedFinding
	// SuppressionIssues diagnoses directives that are malformed or
	// reference a rule id the active policy does not define. A report
	// with suppression issues is never Clean (and `safeflow -strict`
	// exits 3 on them).
	SuppressionIssues []SuppressionIssue

	// LinesOfCode counts non-blank source lines across the analyzed files.
	LinesOfCode int
	// AnnotationLines counts SafeFlow annotation comments.
	AnnotationLines int
	// UnitsAnalyzed is the number of (function, context) solves phase 3
	// performed (the A-2 ablation metric).
	UnitsAnalyzed int

	// Raw (pre-suppression) findings, captured the first time
	// finishReport runs so re-application — session fast paths re-run it
	// after comment-only edits move directives — always starts from the
	// original finding set.
	rawCaptured          bool
	rawWarnings          []*vfg.Source
	rawErrorsData        []*vfg.ErrorDep
	rawErrorsControlOnly []*vfg.ErrorDep

	// incrState is phase 3's captured per-function state for the next
	// incremental update; incrStats describes how much of this run was
	// reused. Both are nil on non-session runs, whose state goes to the
	// store instead. Unexported: Session owns the lifecycle.
	incrState *vfg.IncrState
	incrStats *vfg.IncrStats
}

// SuppressedFinding is one finding matched by an inline safeflow:ignore
// directive: recorded with the directive's justification instead of
// silently dropped, so suppressions stay auditable in every format.
type SuppressedFinding struct {
	Rule   string
	Reason string
	File   string
	Line   int
	// Kind classifies the suppressed finding: "warning", "error" or
	// "control-only".
	Kind string
	// Text is the finding's rendered one-line form.
	Text string
}

// SuppressionIssue is a structured diagnostic for a suppression
// directive the analysis cannot honor: a missing rule id, or a rule id
// the active policy does not define.
type SuppressionIssue struct {
	File string
	// Line is the directive's own line.
	Line int
	Rule string
	Msg  string
}

func (i SuppressionIssue) String() string {
	return fmt.Sprintf("%s:%d: %s", i.File, i.Line, i.Msg)
}

// TotalErrors returns all reported error dependencies (data + control).
func (r *Report) TotalErrors() int { return len(r.ErrorsData) + len(r.ErrorsControlOnly) }

// Clean reports whether the analysis found nothing to flag. A degraded
// run is never clean: skipped units mean the verdict is incomplete.
func (r *Report) Clean() bool {
	return len(r.AnnotationErrors) == 0 && len(r.Violations) == 0 &&
		len(r.Warnings) == 0 && r.TotalErrors() == 0 && len(r.Internal) == 0 &&
		!r.Degraded && len(r.Diagnostics) == 0 && len(r.SuppressionIssues) == 0
}

// AnalyzeSources compiles and analyzes the translation units named by
// cFiles against the given source tree. A cancelled context stops the
// pipeline between translation units (frontend) and between analysis
// units (phase-3 SCC waves) and returns ctx.Err(). Every phase runs
// panic-isolated — a crash is converted into a *guard.InternalError in
// Report.Internal instead of unwinding the caller, so one bad system in a
// batch fails alone.
func AnalyzeSources(ctx context.Context, name string, sources cpp.Source, cFiles []string, opts Options) (*Report, error) {
	var col *metrics.Collector
	if opts.Stats {
		col = metrics.NewCollector()
		col.SetTranslationUnits(len(cFiles))
	}

	var rr *frontend.RecoverResult
	fopts := frontend.Options{
		Defines:   opts.Defines,
		Workers:   opts.Workers,
		Cache:     opts.Cache.parseTier(),
		Modules:   opts.Cache.moduleTier(),
		DiskCache: opts.DiskCache,
		Metrics:   col,
	}
	done := col.Phase("frontend")
	err := guard.Run("frontend", name, func() error {
		firePhaseHook("frontend", name)
		var cerr error
		rr, cerr = frontend.CompileWith(ctx, name, sources, cFiles, fopts, !opts.Recover)
		return cerr
	})
	done()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var ie *guard.InternalError
		if errors.As(err, &ie) {
			// A frontend crash leaves no module to analyze: report the
			// isolated failure for this system and let the batch go on.
			rep := &Report{Name: name, Internal: []error{err}}
			rep.Metrics = col.Finish()
			return rep, nil
		}
		return nil, fmt.Errorf("safeflow: %w", err)
	}
	degraded := rr.Degraded()
	if degraded {
		// A degraded module is never analyzed incrementally, nor stored:
		// skipped-def summaries are conservative placeholders and are
		// never reused.
		opts.Cache = nil
		opts.incrOpts = nil
	}
	loc, annots, digest := scanSources(sources, cFiles)
	rep, err := analyzeModuleWith(ctx, name, rr.Res, opts, col, rr.MissingDefs, digest, nil, rr.Entry)
	if err != nil {
		return nil, err
	}
	rep.Diagnostics = rr.Diags
	rep.Degraded = degraded
	rep.LinesOfCode, rep.AnnotationLines = loc, annots
	rep.finishReport(activePolicy(opts), scanSourceSuppressions(sources, cFiles))
	rep.Metrics = col.Finish()
	return rep, nil
}

// AnalyzeModule runs phases 1–3 on an already-compiled module; it
// returns ctx.Err() when the run was cancelled between phases or analysis
// units. A module comes without source text, so its stored phase-3 state
// is matched by system name and options alone.
func AnalyzeModule(ctx context.Context, name string, res *irgen.Result, opts Options) (*Report, error) {
	return analyzeModuleWith(ctx, name, res, opts, nil, nil, 0, nil, nil)
}

// analyzeModuleWith drives phases 1–3, each wrapped in panic isolation
// and separated by cancellation checks; col (may be nil) collects
// metrics, missing (may be nil) names the functions whose defining
// units the recovering front end skipped, digest names the sources
// the module was compiled from (scanSources) for the state store, idx
// (nil: a table for this run) holds the functions' def-use indexes,
// which phases 1 and 3 share, and entry (may be nil) is the module tier
// entry the module came from.
//
// The phases form a small DAG: callgraph → shmflow → restrict on one
// branch and pointsto, which needs no region facts, on the other, both
// joined before vfg. With more than one worker the points-to branch runs
// in its own goroutine; every return below joins it first. Its phase
// metric is then the time vfg waited for it, and its hook and its
// isolated failure are reported in the sequential order.
//
// A run outside a session whose entry holds the facts of its points-to
// mode (moduleFacts) computes none of them: each phase fires its hook and
// takes its result from the entry, no points-to goroutine starts, and
// phase 3 reuses the entry's fingerprints. The first clean, converged
// run that stores its phase-3 state stores the facts too.
func analyzeModuleWith(ctx context.Context, name string, res *irgen.Result, opts Options, col *metrics.Collector, missing map[string]bool, digest uint64, idx *dataflow.Index, entry *frontend.CompiledModule) (*Report, error) {
	m := res.Module
	mode := pointsToMode(opts)
	if opts.incrOpts != nil {
		// A session keeps facts of its own across updates.
		entry = nil
	}
	var facts *moduleFacts
	if entry != nil {
		facts, _ = entry.Facts(factSlot(mode)).(*moduleFacts)
	}
	var reused *pointsto.Result
	switch {
	case facts != nil:
		idx, reused = facts.idx, facts.pts
	case idx == nil:
		idx = dataflow.NewIndex()
	}
	pt := startPointsTo(name, m, mode, reused, opts.Workers != 1)
	defer pt.join()
	rep := &Report{Name: name, Module: m}
	pol := activePolicy(opts)
	rep.PolicyName = pol.Name
	rep.PolicyFingerprint = pol.Fingerprint()
	rep.PolicyExplicit = opts.Policy != nil
	rep.PolicyRules = pol.Rules

	// Phase 1: shared-memory regions (and the callgraph it needs).
	var cg *callgraph.Graph
	var sf *shmflow.Result
	done := col.Phase("shmflow")
	err := guard.Run("shmflow", name, func() error {
		firePhaseHook("shmflow", name)
		if facts != nil {
			cg, sf = facts.cg, facts.sf
			return nil
		}
		cg = callgraph.New(m)
		sf = shmflow.AnalyzeIndexed(m, cg, idx)
		return nil
	})
	done()
	if err != nil {
		// Without region facts neither restriction checking nor the
		// value-flow analysis is meaningful: fail this system alone.
		rep.Internal = append(rep.Internal, err)
		rep.Metrics = col.Finish()
		return rep, nil
	}
	rep.Regions = sf.Regions
	// Clipped: the errors appended below must not land in sf's array,
	// which other runs may share.
	rep.AnnotationErrors = slices.Clip(sf.Errors)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Phase 2.
	var violations []restrict.Violation
	done = col.Phase("restrict")
	err = guard.Run("restrict", name, func() error {
		firePhaseHook("restrict", name)
		if facts != nil {
			violations = facts.violations
			return nil
		}
		violations = restrict.Check(m, sf)
		return nil
	})
	done()
	rep.Violations = slices.Clip(violations)
	if err != nil {
		// Phase 3 does not consume phase-2 results: record and continue.
		rep.Internal = append(rep.Internal, err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Phase 3: alias analysis, then the value-flow fixpoint.
	done = col.Phase("pointsto")
	pts, err := pt.wait()
	done()
	if err != nil {
		rep.Internal = append(rep.Internal, err)
		rep.Metrics = col.Finish()
		return rep, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	var roots []*ir.Function
	var rootErrs []error
	for _, r := range opts.Roots {
		f := m.FuncByName(r)
		switch {
		case f == nil:
			rootErrs = append(rootErrs, fmt.Errorf(
				"root function %q not found in %s (analysis entry ignored)", r, name))
		case f.IsDecl:
			rootErrs = append(rootErrs, fmt.Errorf(
				"root function %q is declared but not defined in %s (analysis entry ignored)", r, name))
		default:
			roots = append(roots, f)
		}
	}
	// A run outside a session starts from the last converged state of the
	// same system, options and sources, unless it is cold, degraded or
	// exponential (the exponential driver tracks nothing).
	incr, storeKey := opts.incrOpts, ""
	if usesStore(opts) && len(missing) == 0 {
		storeKey = stateKey(name, opts)
		prev, _, corrupt := opts.Cache.State.Get(storeKey, digest)
		if corrupt {
			col.AddCacheCorruptEvictions(1)
		}
		incr = &vfg.IncrOptions{Prev: prev}
		if facts != nil {
			incr.Fingerprints = facts.fps
		}
	}
	var v *vfg.Result
	done = col.Phase("vfg")
	err = guard.Run("vfg", name, func() error {
		firePhaseHook("vfg", name)
		v = vfg.Run(vfg.Config{
			Module:      m,
			CG:          cg,
			SF:          sf,
			PTS:         pts,
			AssertVars:  res.AssertVars,
			Roots:       roots,
			Exponential: opts.Exponential,
			Workers:     opts.Workers,
			Ctx:         ctx,
			Metrics:     col,
			MissingDefs: missing,
			Incr:        incr,
			Policy:      opts.Policy,
			Index:       idx,
		})
		return nil
	})
	done()
	if err != nil {
		rep.Internal = append(rep.Internal, err)
		rep.Metrics = col.Finish()
		return rep, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rep.Internal = append(rep.Internal, v.Internal...)
	hits, misses := 0, 0
	if v.Incr != nil {
		col.SetIncremental(v.Incr.FuncsInvalidated, v.Incr.FuncsReused, v.Incr.UnitsReplayed, v.Incr.Restarts)
		if storeKey != "" {
			// Only a converged run with no recovered panic in any phase is
			// stored: a partial state would poison every later run.
			if v.NextIncr != nil && len(rep.Internal) == 0 {
				opts.Cache.State.Put(storeKey, digest, v.NextIncr)
				if entry != nil && facts == nil {
					entry.StoreFacts(factSlot(mode), &moduleFacts{
						cg: cg, sf: sf, violations: violations, pts: pts, idx: idx,
						fps: v.NextIncr.Fingerprints(),
					})
				}
			}
			hits, misses = v.Incr.UnitsReplayed, v.Incr.UnitsSolved
		} else {
			rep.incrState = v.NextIncr
			rep.incrStats = v.Incr
		}
	}
	col.SetPhase3(v.SCCs, v.Rounds, v.UnitsAnalyzed, hits, misses)
	col.SetVFGTransfers(v.Transfers)

	rep.Warnings = v.Warnings
	rep.UnitsAnalyzed = v.UnitsAnalyzed
	rep.AnnotationErrors = append(rep.AnnotationErrors, rootErrs...)

	// The paper inserts the InitCheck run-time verification into every
	// initializing function; since we analyze rather than rewrite, verify
	// it is present wherever shared-memory variables are declared.
	// Iterate in module function order (not map order) so the error list
	// is deterministic.
	for _, initFn := range m.Funcs {
		if !sf.InitFuncs[initFn] {
			continue
		}
		if len(sf.Regions) == 0 {
			break
		}
		declaresHere := false
		for _, r := range sf.Regions {
			if r.Init == initFn {
				declaresHere = true
			}
		}
		if !declaresHere {
			continue
		}
		if !callsInitCheck(initFn) {
			rep.AnnotationErrors = append(rep.AnnotationErrors, fmt.Errorf(
				"%s: initializing function %q declares shared-memory variables but never calls InitCheck (overlap verification missing)",
				initFn.Pos, initFn.Name))
		}
	}
	for _, e := range v.Errors {
		if e.ControlOnly {
			rep.ErrorsControlOnly = append(rep.ErrorsControlOnly, e)
		} else {
			rep.ErrorsData = append(rep.ErrorsData, e)
		}
	}
	return rep, nil
}

// pointsToRun is one run's alias analysis. Started concurrently it
// runs in its own goroutine from the start; otherwise wait runs it in
// place, after phases 1 and 2, as a sequential pipeline would. A run
// handed an earlier result only fires the phase hook, in place.
type pointsToRun struct {
	name string
	m    *ir.Module
	mode pointsto.Mode
	done chan struct{} // nil when wait runs it in place
	pts  *pointsto.Result
	err  error
}

// startPointsTo starts the alias analysis of m; reused, when non-nil, is
// its result from an earlier run over m.
func startPointsTo(name string, m *ir.Module, mode pointsto.Mode, reused *pointsto.Result, concurrent bool) *pointsToRun {
	p := &pointsToRun{name: name, m: m, mode: mode, pts: reused}
	if concurrent && reused == nil {
		p.done = make(chan struct{})
		go func() {
			defer close(p.done)
			p.run()
		}()
	}
	return p
}

func (p *pointsToRun) run() {
	p.err = guard.Run("pointsto", p.name, func() error {
		firePhaseHook("pointsto", p.name)
		if p.pts == nil {
			p.pts = pointsto.Analyze(p.m, p.mode)
		}
		return nil
	})
}

// wait returns the analysis result, or its isolated failure.
func (p *pointsToRun) wait() (*pointsto.Result, error) {
	if p.done == nil {
		p.run()
	} else {
		<-p.done
	}
	return p.pts, p.err
}

// join waits for a concurrent run to finish, so none outlives the
// analysis that started it; an unstarted in-place run never starts.
func (p *pointsToRun) join() {
	if p.done != nil {
		<-p.done
	}
}

// callsInitCheck reports whether the function (directly) calls InitCheck.
func callsInitCheck(f *ir.Function) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && c.Callee.Name == "InitCheck" {
				return true
			}
		}
	}
	return false
}

// moduleFacts are what phases 1–3 derive from a module alone under one
// points-to mode, kept in the module tier entry (frontend.CompiledModule)
// by the first clean, converged run over it: the call graph, the shm
// facts, the restriction violations, the points-to result, the def-use
// indexes and phase 3's per-function fingerprints. Every analysis that
// hits the entry shares them, possibly at once, so nothing modifies them;
// the report slices that alias them are clipped.
type moduleFacts struct {
	cg         *callgraph.Graph
	sf         *shmflow.Result
	violations []restrict.Violation
	pts        *pointsto.Result
	idx        *dataflow.Index
	fps        vfg.Fingerprints
}

// factSlot is the module tier entry's fact slot of a points-to mode.
func factSlot(mode pointsto.Mode) int { return int(mode) - 1 }

// Cache bundles the three in-memory tiers an analysis reads and fills,
// each an instance of the generic LRU of internal/cache. Create it with
// NewCache; it is safe for concurrent use.
type Cache struct {
	// Parse holds parsed translation units (256 entries).
	Parse *frontend.ParseCache
	// Module holds compiled modules (8192 IR instructions in all, at
	// most 8 modules), keyed by the system name and every unit's parse
	// key: a repeat analysis of unchanged sources skips type checking,
	// lowering and mem2reg, and its Report.Module is the module of the
	// run that stored it. Each entry also keeps, per points-to mode, the
	// whole-module facts (moduleFacts) of the first clean, converged
	// analysis of the module, so a repeat runs no call graph, shmflow,
	// restrict or points-to and reuses phase 3's fingerprints.
	Module *frontend.ModuleCache
	// State holds each system's last converged phase-3 state (64
	// entries), keyed by stateKey and tagged with the digest of its
	// sources; its integrity sum is the state's structural checksum.
	State *cache.LRU[string, *vfg.IncrState]
}

// maxStates bounds a Cache's state tier.
const maxStates = 64

// NewCache returns an empty Cache.
func NewCache() *Cache {
	return &Cache{
		Parse:  frontend.NewParseCache(),
		Module: frontend.NewModuleCache(),
		State:  cache.NewLRU[string](maxStates, (*vfg.IncrState).Checksum),
	}
}

// parseTier is c's parse tier, nil when c is.
func (c *Cache) parseTier() *frontend.ParseCache {
	if c == nil {
		return nil
	}
	return c.Parse
}

// moduleTier is c's module tier, nil when c is.
func (c *Cache) moduleTier() *frontend.ModuleCache {
	if c == nil {
		return nil
	}
	return c.Module
}

// usesStore reports whether a run loads and stores the last converged
// phase-3 state: every run outside a session that has a Cache and is not
// exponential (a degraded run is made cold before it gets here).
func usesStore(opts Options) bool {
	return opts.incrOpts == nil && opts.Cache != nil && !opts.Exponential
}

// stateKey names a system's slot in the state tier of a Cache:
// the system name plus every option that the per-function fingerprints
// do not cover. It holds no source text, so a system keeps one slot as
// its sources change; the slot's entry is tagged with the digest of its
// sources (scanSources).
func stateKey(name string, opts Options) string {
	var b strings.Builder
	put := func(parts ...string) {
		for _, p := range parts {
			fmt.Fprintf(&b, "%d:%s;", len(p), p)
		}
	}
	put(name, fmt.Sprintf("mode=%d exp=%v", pointsToMode(opts), opts.Exponential))
	pol := activePolicy(opts)
	put("policy="+pol.Name, pol.Fingerprint())
	put(strconv.Itoa(len(opts.Roots)))
	put(opts.Roots...)
	defs := make([]string, 0, len(opts.Defines))
	for k, v := range opts.Defines {
		defs = append(defs, k+"="+v)
	}
	sort.Strings(defs)
	put(defs...)
	return b.String()
}

// digestSeed seeds the source digest: the state tier it tags lives in one
// process.
var digestSeed = maphash.MakeSeed()

// scanSources counts non-blank lines and annotation comments across the
// program's files (headers included once each), and hashes every file
// with its name into digest: a stored phase-3 state is replayed only by
// a run over the sources it was computed from.
func scanSources(sources cpp.Source, cFiles []string) (loc, annots int, digest uint64) {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	put := func(s string) {
		h.WriteString(strconv.Itoa(len(s)))
		h.WriteByte(':')
		h.WriteString(s)
	}
	walkSources(cFiles, func(name string) []string {
		put(name)
		text, err := sources.ReadFile(name)
		if err != nil {
			h.WriteByte('!')
			return nil
		}
		put(text)
		l, a := lineStats(text)
		loc += l
		annots += a
		return cpp.QuotedIncludes(text)
	})
	return loc, annots, h.Sum64()
}

// lineStats counts one file's non-blank lines and annotation comments.
func lineStats(text string) (loc, annots int) {
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if strings.TrimSpace(line) != "" {
			loc++
		}
		if strings.Contains(line, "SafeFlow Annotation") {
			annots++
		}
	}
	return loc, annots
}

// walkSources visits every file reachable from cFiles through quoted
// includes exactly once, depth first in include order: a file, then each
// file it includes with that file's own includes. visit handles one file
// and returns the names it includes. Every whole-program source scan —
// the source digest, the line counts, the suppression directives —
// walks the program this way, so they all see the same files.
func walkSources(cFiles []string, visit func(name string) []string) {
	seen := make(map[string]bool)
	var walk func(name string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		for _, inc := range visit(name) {
			walk(inc)
		}
	}
	for _, f := range cFiles {
		walk(f)
	}
}

// pointsToMode resolves the alias-analysis solver the run uses.
func pointsToMode(opts Options) pointsto.Mode {
	if opts.PointsTo == 0 {
		return pointsto.ModeSubset
	}
	return opts.PointsTo
}

// activePolicy resolves the policy the run analyzes under: the
// configured one, or the default simplex-shm policy when Options.Policy
// is nil.
func activePolicy(opts Options) *policy.Compiled {
	if opts.Policy != nil {
		return opts.Policy
	}
	return policy.Default()
}

// scanSourceSuppressions collects inline safeflow:ignore directives from
// every file reachable through quoted includes, so the scan sees exactly
// the analyzed program.
func scanSourceSuppressions(sources cpp.Source, cFiles []string) []policy.Suppression {
	var out []policy.Suppression
	walkSources(cFiles, func(name string) []string {
		text, err := sources.ReadFile(name)
		if err != nil {
			return nil
		}
		out = append(out, policy.ScanSuppressions(name, text)...)
		return cpp.QuotedIncludes(text)
	})
	return out
}

// finishReport applies the scanned suppression directives to the
// report: findings whose position and rule id match a directive move
// from Warnings/Errors to the Suppressed audit trail, and directives
// with a missing or unknown rule id become SuppressionIssues. It is
// idempotent — the pre-suppression finding slices are captured on first
// call and every application restarts from them — because session fast
// paths re-run it after comment-only edits move directives around.
func (r *Report) finishReport(pol *policy.Compiled, sups []policy.Suppression) {
	if !r.rawCaptured {
		r.rawCaptured = true
		r.rawWarnings = r.Warnings
		r.rawErrorsData = r.ErrorsData
		r.rawErrorsControlOnly = r.ErrorsControlOnly
	}
	r.Warnings = r.rawWarnings
	r.ErrorsData = r.rawErrorsData
	r.ErrorsControlOnly = r.rawErrorsControlOnly
	r.Suppressed = nil
	r.SuppressionIssues = nil

	// Index valid directives by file:line:rule; diagnose the rest.
	type supKey struct {
		file string
		line int
		rule string
	}
	byKey := make(map[supKey]policy.Suppression, len(sups))
	for _, s := range sups {
		switch {
		case s.Rule == "":
			r.SuppressionIssues = append(r.SuppressionIssues, SuppressionIssue{
				File: s.File, Line: s.CommentLine,
				Msg: "safeflow:ignore directive is missing a rule id",
			})
		case !pol.KnownRule(s.Rule):
			r.SuppressionIssues = append(r.SuppressionIssues, SuppressionIssue{
				File: s.File, Line: s.CommentLine, Rule: s.Rule,
				Msg: fmt.Sprintf("safeflow:ignore references rule %q, which policy %q does not define", s.Rule, pol.Name),
			})
		default:
			byKey[supKey{s.File, s.Line, s.Rule}] = s
		}
	}
	sort.Slice(r.SuppressionIssues, func(i, j int) bool {
		a, b := r.SuppressionIssues[i], r.SuppressionIssues[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
	if len(byKey) == 0 {
		return
	}

	match := func(pos ctoken.Pos, rule string) (policy.Suppression, bool) {
		s, ok := byKey[supKey{pos.File, pos.Line, rule}]
		return s, ok
	}
	suppress := func(s policy.Suppression, kind, text string) {
		r.Suppressed = append(r.Suppressed, SuppressedFinding{
			Rule: s.Rule, Reason: s.Reason, File: s.File, Line: s.Line,
			Kind: kind, Text: text,
		})
	}

	var warns []*vfg.Source
	for _, w := range r.rawWarnings {
		if s, ok := match(w.Pos, w.Rule); ok {
			suppress(s, "warning", w.String())
			continue
		}
		warns = append(warns, w)
	}
	r.Warnings = warns
	var errsData []*vfg.ErrorDep
	for _, e := range r.rawErrorsData {
		if s, ok := match(e.Pos, e.Rule); ok {
			suppress(s, "error", e.String())
			continue
		}
		errsData = append(errsData, e)
	}
	r.ErrorsData = errsData
	var errsCtrl []*vfg.ErrorDep
	for _, e := range r.rawErrorsControlOnly {
		if s, ok := match(e.Pos, e.Rule); ok {
			suppress(s, "control-only", e.String())
			continue
		}
		errsCtrl = append(errsCtrl, e)
	}
	r.ErrorsControlOnly = errsCtrl
	sort.Slice(r.Suppressed, func(i, j int) bool {
		a, b := r.Suppressed[i], r.Suppressed[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Text < b.Text
	})
}
