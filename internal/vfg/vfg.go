// Package vfg implements phase 3 of the SafeFlow analysis: the
// interprocedural value-flow analysis that (a) reports a warning for every
// read of unmonitored non-core shared memory and (b) reports an error
// dependency wherever critical data (assert(safe(x))) is data- or
// control-dependent on such a read (paper §3.3).
//
// The analysis is context-sensitive in the monitoring assumptions: each
// function is analyzed once per distinct set of active core(ptr,off,size)
// assumptions inherited down the call graph from monitoring functions.
// Function behavior is captured by ESP-style value-flow summaries (return
// and memory-effect dependencies expressed over symbolic parameters), so
// each (function, context) unit is analyzed to a local fixpoint and reused
// at every call site — the efficient variant the paper describes. The
// exponential re-analysis variant (one unit per call path) is retained
// behind Config.Exponential for the ablation benchmarks.
package vfg

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"safeflow/internal/annot"
	"safeflow/internal/callgraph"
	"safeflow/internal/cfgraph"
	"safeflow/internal/ctoken"
	"safeflow/internal/dataflow"
	"safeflow/internal/ir"
	"safeflow/internal/irgen"
	"safeflow/internal/metrics"
	"safeflow/internal/pointsto"
	"safeflow/internal/policy"
	"safeflow/internal/shmflow"
)

// Config configures the phase-3 analysis.
type Config struct {
	Module *ir.Module
	CG     *callgraph.Graph
	SF     *shmflow.Result
	PTS    *pointsto.Result
	// AssertVars maps assert intrinsic calls to the annotated variable.
	AssertVars map[*ir.Call]string
	// Roots are the entry functions; when empty, every defined, non-init
	// function without callers is a root.
	Roots []*ir.Function
	// Exponential disables summary sharing: every call path gets its own
	// analysis unit (the paper's unoptimized algorithm; ablation A-2).
	// Exponential mode always uses the sequential driver.
	Exponential bool
	// Workers bounds the number of callgraph SCCs solved concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 solves sequentially.
	Workers int
	// Ctx, when non-nil, cancels the analysis between units: the drivers
	// check it between fixpoint rounds and before each SCC solve, so a
	// cancelled run stops promptly with a partial (discarded) result and
	// captures no state. Callers detect cancellation through Ctx.Err(),
	// not through the Result.
	Ctx context.Context
	// Metrics, when non-nil, receives goroutine observations from worker
	// goroutines (peak-concurrency instrumentation). Nil-safe.
	Metrics *metrics.Collector
	// MissingDefs names functions whose definitions are unavailable
	// because their translation unit was skipped by the recovering front
	// end. Calls to them are treated conservatively: the return value and
	// the memory reachable through pointer arguments receive an
	// unknown-taint source (SrcSkippedDef), so a degraded run can only
	// over-report, never miss, a dependency in the surviving units.
	MissingDefs map[string]bool
	// Incr, when non-nil, switches the run to incremental mode: the run
	// tracks per-unit contributions and captures a replayable IncrState
	// (Result.NextIncr); when Incr.Prev is set, unchanged functions'
	// units are replayed instead of re-solved (see incr.go). Ignored in
	// Exponential mode and on degraded runs (MissingDefs non-empty) —
	// skipped-def summaries are never reused across updates.
	Incr *IncrOptions
	// Policy, when non-nil, drives taint seeding and sink checking off
	// the compiled policy's tables: configured source rules seed taint,
	// sink rules record per-rule errors, sanitizers launder, propagators
	// copy taint between arguments, and the built-in shared-memory rules
	// (unmonitored reads, noncore receives, kill-pid) run only when the
	// policy enables them. Nil behaves exactly like the default
	// simplex-shm policy. A stored state must only be passed back to a run
	// under the same policy — summaries encode rule attribution.
	Policy *policy.Compiled
	// Index supplies each function's def-use index; the run's phases
	// share it (core hands phase 1's table on), and a session keeps it
	// across updates. Nil builds the indexes for this run alone.
	Index *dataflow.Index
}

// ErrorDep is one reported error: critical data depends on unmonitored
// non-core values.
type ErrorDep struct {
	Pos     ctoken.Pos
	FnName  string
	Var     string
	Sources map[*Source]Kind
	// Rule is the id of the policy rule whose sink recorded the error
	// (policy.RuleAssertSafe for assert(safe), policy.RuleKillPid for the
	// implicit kill-pid sink, or a configured sink rule's id).
	Rule string
	// ControlOnly marks dependencies that are control-flow only — the
	// class the paper identifies as requiring manual inspection (its false
	// positives were all of this class).
	ControlOnly bool
}

// String implements fmt.Stringer.
func (e *ErrorDep) String() string {
	kind := "data"
	if e.ControlOnly {
		kind = "control-only"
	}
	return fmt.Sprintf("%s: critical data %q in %s depends on unmonitored non-core values (%s, %d source(s))",
		e.Pos, e.Var, e.FnName, kind, len(e.Sources))
}

// SortedSources lists the error's sources in stable order.
func (e *ErrorDep) SortedSources() []*Source {
	out := make([]*Source, 0, len(e.Sources))
	for s := range e.Sources {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return sourceLess(out[i], out[j]) })
	return out
}

// Result is the phase-3 output.
type Result struct {
	// Warnings lists every unmonitored non-core read (no false positives
	// or negatives by construction — each is a concrete unsafe access).
	Warnings []*Source
	// Errors lists critical-data dependencies on unsafe values.
	Errors []*ErrorDep
	// UnitsAnalyzed counts (function, context) analysis units solved
	// (solves, not distinct units) — the ablation metric.
	UnitsAnalyzed int
	// Transfers counts instruction transfer evaluations over every unit
	// solve: the solver's work, which its visit order decides.
	// SweptInstrs is its floor, one evaluation per instruction per
	// solver pass, so Transfers/SweptInstrs is the transfers per
	// instruction.
	Transfers, SweptInstrs int64
	// SCCs is the number of strongly connected components in the call
	// graph (a structural, schedule-independent count).
	SCCs int
	// Rounds is the number of driver fixpoint rounds executed.
	Rounds int
	// Internal lists panics recovered inside SCC workers (as
	// *guard.InternalError), sorted for deterministic reporting. The
	// affected component's results may be partial; everything else is
	// complete.
	Internal []error
	// Incr reports what an incremental run invalidated and reused; nil
	// on non-incremental runs.
	Incr *IncrStats
	// NextIncr is the state captured for the next incremental run; nil
	// when incremental mode was off or the run faulted or was cancelled.
	NextIncr *IncrState
}

// Run executes the analysis.
func Run(cfg Config) *Result {
	if cfg.Incr != nil && !cfg.Exponential && len(cfg.MissingDefs) == 0 {
		return runIncremental(cfg)
	}
	a := newAnalysis(cfg)
	if cfg.Exponential {
		// Exponential units are keyed by call path, so the closure is only
		// discoverable while solving: use the legacy sequential driver.
		a.seedRoots()
		a.fixpoint()
	} else {
		a.runScheduled(workerCount(cfg.Workers))
	}
	return a.finish()
}

func newAnalysis(cfg Config) *analysis {
	return &analysis{
		cfg:     cfg,
		units:   make(map[string]*unit),
		sources: make(map[srcKey]*Source),
		errors:  make(map[string]*ErrorDep),
		mem:     newMemStore(),
		fnData:  make(map[*ir.Function]*fnData),
		memLog:  make(map[*pointsto.Object]objChange),
	}
}

// ---------------------------------------------------------------------------
// Analysis state

// srcKey identifies a source by value rather than by instruction pointer,
// so sources unify across analysis passes (and across replay rebinding):
// the same (position, kind, region, detail) is the same warning.
type srcKey struct {
	pos    ctoken.Pos
	kind   SourceKind
	region string
	detail string
	rule   string
}

type obligation struct {
	pos    ctoken.Pos
	fnName string
	vbl    string
	rule   string
	par    kindSet
}

type effect struct {
	ref pointsto.Ref
	par kindSet
}

type summary struct {
	ret     Taint
	effects []effect
	asserts []obligation
}

type unit struct {
	key       string
	fn        *ir.Function
	ctx       Context
	active    Context // ctx extended with the function's own core facts
	activeKey string  // active.Key(), precomputed (hot in sourceFor)
	sum       summary
	// calleeUnits memoizes getUnit lookups per callee in summary mode (the
	// (callee → unit) binding is fixed for the life of the unit); the
	// scheduler fills it in expandUnits. Units of one function solve
	// sequentially, so no lock is needed.
	calleeUnits map[*ir.Function]*unit
	// noncoreParams are parameter names annotated noncore (socket
	// descriptors, §3.4.3); coreLocals are names of local buffers assumed
	// core by assume(core(...)) that did not resolve to a region.
	noncoreParams map[string]bool
	coreLocals    map[string]bool
	// Demand-driven scheduling state (see markStale): start is the
	// sequence number taken when the unit's latest solve began (0: never
	// solved), sumSeq the one taken when its summary last changed, and
	// memStale marks a unit another unit's write invalidated since start.
	start, sumSeq uint64
	memStale      bool
	// Incremental-mode state: replayed marks a unit installed from a
	// previous run's record rec (never solved), cutOff one installed by
	// early cutoff inside the invalidation cone, and kept a solved unit
	// whose latest summary equals its previous record's; the rec* maps
	// accumulate the unit's own contributions when tracking is on. All are
	// touched only by the unit's (single) solver goroutine or under a.mu
	// at creation.
	replayed  bool
	cutOff    bool
	kept      bool
	rec       *unitRecord
	recWrites map[pointsto.Ref]Taint
	recReads  map[pointsto.Ref]bool
	recSrcs   map[recSrcKey]bool
	recErrs   map[string]*recErrVal
}

type analysis struct {
	cfg Config

	mu       sync.Mutex // guards units and unitList
	units    map[string]*unit
	unitList []*unit

	srcMu   sync.Mutex // guards sources, srcList (and each Source's Contexts)
	sources map[srcKey]*Source
	// srcList is the interning table: srcList[s.id] == s. Reads of taint
	// ids resolve through it (cold paths only), always under srcMu.
	srcList []*Source

	errMu  sync.Mutex // guards errors
	errors map[string]*ErrorDep

	mem *memStore

	fnMu   sync.Mutex // guards fnData
	fnData map[*ir.Function]*fnData

	intMu    sync.Mutex // guards internal
	internal []error

	solves    atomic.Int64
	transfers atomic.Int64
	swept     atomic.Int64
	changed   atomic.Bool // round signal of the exponential-mode fixpoint

	// seq orders solve starts, summary changes and memory changes; memLog
	// holds the memory changes since the last staleness check (logMu).
	seq    atomic.Uint64
	logMu  sync.Mutex
	memLog map[*pointsto.Object]objChange

	rounds int

	// Incremental-mode state (zero outside incremental runs): track turns
	// on per-unit contribution recording; replay maps unit keys to the
	// previous run's records, installed at getUnit via replayBinder;
	// cutoff holds the records of cone units whose function is not dirty,
	// installed by early cutoff when their callees kept the summaries of
	// prev, the previous run's state.
	track        bool
	replay       map[string]*unitRecord
	cutoff       map[string]*unitRecord
	prev         *IncrState
	replayBinder *binder
}

// ctxDone reports whether the run's context (if any) has been cancelled.
func (a *analysis) ctxDone() bool {
	return a.cfg.Ctx != nil && a.cfg.Ctx.Err() != nil
}

// maxRounds caps the driver fixpoint as a safety net; the lattices are
// finite so convergence is guaranteed well before this.
const maxRounds = 1000

func (a *analysis) seedRoots() {
	roots := a.cfg.Roots
	if len(roots) == 0 {
		for _, f := range a.cfg.Module.Funcs {
			if f.IsDecl || a.cfg.SF.InitFuncs[f] {
				continue
			}
			if len(a.cfg.CG.Callers[f]) == 0 {
				roots = append(roots, f)
			}
		}
	}
	for _, r := range roots {
		if r != nil && !r.IsDecl && !a.cfg.SF.InitFuncs[r] {
			a.getUnit(r, nil, "")
		}
	}
}

func (a *analysis) fixpoint() {
	for round := 0; round < maxRounds; round++ {
		if a.ctxDone() {
			return
		}
		a.rounds++
		a.changed.Store(false)
		for i := 0; i < len(a.unitList); i++ {
			if a.ctxDone() {
				return
			}
			a.solveUnit(a.unitList[i])
		}
		if !a.changed.Load() {
			return
		}
	}
}

// maxCallPathDepth bounds per-call-path context growth in exponential
// mode: beyond this depth (recursion, or very deep call chains) the unit
// falls back to the shared summary key so the analysis still terminates.
const maxCallPathDepth = 10

// getUnit returns (creating if needed) the analysis unit for fn in ctx.
// callPath distinguishes units in exponential mode.
func (a *analysis) getUnit(fn *ir.Function, ctx Context, callPath string) *unit {
	key := fn.Name + "|" + ctx.Key()
	if a.cfg.Exponential && strings.Count(callPath, "@") < maxCallPathDepth {
		key += "|@" + callPath
	}
	a.mu.Lock()
	if u, ok := a.units[key]; ok {
		a.mu.Unlock()
		return u
	}
	u := &unit{
		key:           key,
		fn:            fn,
		ctx:           ctx,
		noncoreParams: make(map[string]bool),
		coreLocals:    make(map[string]bool),
	}
	u.active = ctx.with(a.resolveCoreFacts(fn, u))
	u.activeKey = u.active.Key()
	if a.replay != nil {
		if rec, ok := a.replay[key]; ok {
			a.installReplay(u, rec)
		}
	}
	a.units[key] = u
	a.unitList = append(a.unitList, u)
	a.mu.Unlock()
	a.changed.Store(true)
	return u
}

// resolveCoreFacts turns the function's assume facts into core ranges and
// records noncore socket parameters and core local buffers.
func (a *analysis) resolveCoreFacts(fn *ir.Function, u *unit) []CoreRange {
	ff, _ := fn.Facts.(*annot.FuncFacts)
	if ff == nil {
		return nil
	}
	var out []CoreRange
	for _, cf := range ff.Core {
		if reg, ok := a.cfg.SF.RegionByName[cf.Ptr]; ok {
			out = append(out, CoreRange{Region: reg, Lo: cf.Offset, Hi: cf.Offset + cf.Size})
			continue
		}
		if p := paramByName(fn, cf.Ptr); p != nil {
			fact := a.cfg.SF.FactOf(fn, p)
			resolved := false
			for reg, iv := range fact {
				if !iv.Unknown && iv.Lo == iv.Hi {
					out = append(out, CoreRange{Region: reg, Lo: iv.Lo + cf.Offset, Hi: iv.Lo + cf.Offset + cf.Size})
					resolved = true
				}
			}
			if resolved {
				continue
			}
		}
		// Not a region: a local received-data buffer (§3.4.3).
		u.coreLocals[cf.Ptr] = true
	}
	for _, nc := range ff.NonCore {
		if _, isRegion := a.cfg.SF.RegionByName[nc.Name]; !isRegion {
			u.noncoreParams[nc.Name] = true
		}
	}
	return out
}

func paramByName(fn *ir.Function, name string) *ir.Param {
	for _, p := range fn.Params {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// fnData is the per-function solver state shared by every unit of the
// function: control-dependence edges, the dense def-use index with the
// control edges declared as extra uses, one reusable solver, and the
// parameter seed facts (identical for every unit of the function), and
// the global memory objects its loads read. All units of one function
// belong to the same callgraph SCC and therefore solve sequentially, so
// sharing a single solver is race-free.
type fnData struct {
	deps   map[*ir.Block][]cfgraph.ControlDep
	solver *dataflow.ValueSolver[Taint]
	seeds  []dataflow.Seed[Taint]
	reads  []*pointsto.Object
}

func (a *analysis) fnDataOf(fn *ir.Function) *fnData {
	a.fnMu.Lock()
	defer a.fnMu.Unlock()
	if d, ok := a.fnData[fn]; ok {
		return d
	}
	d := &fnData{deps: cfgraph.ControlDeps(fn)}
	info := a.cfg.Index.Of(fn)

	// Control-dependence edges are not operands, so the solver needs them
	// declared explicitly: a phi (or a call result) must be re-evaluated
	// when the taint of a controlling branch condition changes.
	extra := make([][]int32, info.NumValues)
	addCtrlUses := func(in ir.Instr, b *ir.Block) {
		ii := int32(ir.InstrIndex(in))
		for _, dep := range d.deps[b] {
			if n := ir.ValueNum(dep.Cond); n >= 0 && n < len(extra) {
				extra[n] = append(extra[n], ii)
			}
		}
	}
	seen := make(map[*pointsto.Object]bool)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Phi:
				addCtrlUses(x, b)
				for _, e := range x.Edges {
					addCtrlUses(x, e.Pred)
				}
			case *ir.Call:
				addCtrlUses(x, b)
			case *ir.Load:
				// Every instruction is evaluated at least once per solve,
				// so these are exactly the objects transfer reads from the
				// global memory store.
				if !a.cfg.SF.FactOf(fn, x.Addr).Empty() {
					continue
				}
				for _, ref := range a.cfg.PTS.PointsTo(x.Addr) {
					if o := ref.Obj; o.Kind != pointsto.ObjShm && !seen[o] {
						seen[o] = true
						d.reads = append(d.reads, o)
					}
				}
			}
		}
	}
	d.solver = &dataflow.ValueSolver[Taint]{Info: info, Lattice: taintLattice{}, ExtraUses: extra}
	for i, p := range fn.Params {
		var t Taint
		t.addParam(i, KindData)
		d.seeds = append(d.seeds, dataflow.Seed[Taint]{Val: p, Fact: t})
	}
	a.fnData[fn] = d
	return d
}

// polShm reports whether the built-in Simplex shared-memory rules are
// active: always without a configured policy, otherwise per its Shm flag.
func (a *analysis) polShm() bool {
	return a.cfg.Policy == nil || a.cfg.Policy.Shm
}

func (a *analysis) sourceFor(u *unit, pos ctoken.Pos, region *shmflow.Region, kind SourceKind, detail, rule string) *Source {
	fn, ctxKey := u.fn, u.activeKey
	regionName := ""
	if region != nil {
		regionName = region.Name
	}
	k := srcKey{pos: pos, kind: kind, region: regionName, detail: detail, rule: rule}
	if a.track {
		u.recSrc(k, fn.Name, ctxKey)
	}
	a.srcMu.Lock()
	defer a.srcMu.Unlock()
	s, ok := a.sources[k]
	if !ok {
		s = &Source{
			Kind:     kind,
			Pos:      pos,
			FnName:   fn.Name,
			Region:   region,
			Detail:   detail,
			Rule:     rule,
			Contexts: make(map[string]bool),
			id:       len(a.srcList),
		}
		a.sources[k] = s
		a.srcList = append(a.srcList, s)
	}
	s.Contexts[ctxKey] = true
	return s
}

// ---------------------------------------------------------------------------
// Unit solving

// maxInnerRounds caps the load/store iteration within one unit.
const maxInnerRounds = 20

// solveUnit analyzes u to a local fixpoint; a changed summary takes a
// new sumSeq, which makes u's callers stale.
func (a *analysis) solveUnit(u *unit) {
	a.solves.Add(1)
	// Taken before the first read: a memory change sequenced at or below
	// start is visible to this solve.
	u.start = a.seq.Add(1)
	u.memStale = false
	fd := a.fnDataOf(u.fn)

	// Local memory overlay: cells written in this unit, with full taints
	// (including symbolic parameter deps visible to later loads here).
	local := newMemStore()
	newSum := summary{}

	var transfers, swept int64 // summed locally, published once per solve
	fd.solver.Transfer = func(in ir.Instr, get func(ir.Value) Taint) (Taint, bool) {
		transfers++
		return a.transfer(u, in, get, local, fd.deps)
	}
	seeds := a.policyParamSeeds(u, fd.seeds)
	for inner := 0; inner < maxInnerRounds; inner++ {
		facts := fd.solver.Solve(seeds)
		swept += int64(len(fd.solver.Info.Instrs))
		memChanged := a.applyEffectsPass(u, facts, local, fd.deps, &newSum)
		if !memChanged {
			break
		}
		newSum = summary{} // recollected next pass with the updated memory
	}
	fd.solver.Transfer = nil // drop the closure's unit/overlay references
	a.transfers.Add(transfers)
	a.swept.Add(swept)

	if !summaryEqual(u.sum, newSum) {
		u.sum = newSum
		u.sumSeq = a.seq.Add(1)
		a.changed.Store(true)
	}
}

// policyParamSeeds extends a function's parameter seeds with the
// configured param-source rules targeting it: the rule's parameter
// additionally carries a concrete SrcPolicy source. The base seeds are
// never mutated (fnData is shared across the function's units).
func (a *analysis) policyParamSeeds(u *unit, base []dataflow.Seed[Taint]) []dataflow.Seed[Taint] {
	p := a.cfg.Policy
	if p == nil {
		return base
	}
	rules := p.ParamSources(u.fn.Name)
	if len(rules) == 0 {
		return base
	}
	seeds := append(make([]dataflow.Seed[Taint], 0, len(base)+len(rules)), base...)
	for _, r := range rules {
		if r.Param >= len(u.fn.Params) {
			continue
		}
		prm := u.fn.Params[r.Param]
		src := a.sourceFor(u, u.fn.Pos, nil, SrcPolicy, "parameter "+prm.Name+" of "+u.fn.Name, r.ID)
		var t Taint
		t.addSource(src.id, KindData)
		seeds = append(seeds, dataflow.Seed[Taint]{Val: prm, Fact: t})
	}
	return seeds
}

// transfer computes the taint of one instruction's result.
func (a *analysis) transfer(u *unit, in ir.Instr, get func(ir.Value) Taint, local *memStore, deps map[*ir.Block][]cfgraph.ControlDep) (Taint, bool) {
	fn := u.fn
	switch x := in.(type) {
	case *ir.Load:
		t := get(x.Addr) // a tainted address taints the loaded value
		fact := a.cfg.SF.FactOf(fn, x.Addr)
		if !fact.Empty() {
			for region, iv := range fact {
				if region.NonCore && a.polShm() && !u.active.covers(region, iv, x.Type().Size()) {
					src := a.sourceFor(u, x.Pos(), region, SrcUnmonitoredRead, iv.String(), policy.RuleShmRead)
					t.addSource(src.id, KindData)
				}
			}
			return t, true
		}
		for _, ref := range a.cfg.PTS.PointsTo(x.Addr) {
			if a.track {
				u.recRead(ref)
			}
			t = joinTaint(t, local.read(ref))
			t = joinTaint(t, a.mem.read(ref))
		}
		return t, true
	case *ir.Phi:
		t := Taint{}
		for _, e := range x.Edges {
			t = joinTaint(t, get(e.Val))
			// Which edge executes is decided by the branches its
			// predecessor is control dependent on — the merge block itself
			// post-dominates them, so its own deps are not enough.
			t = joinTaint(t, a.blockCtrlTaint(e.Pred, get, deps))
		}
		t = joinTaint(t, a.blockCtrlTaint(x.Parent(), get, deps))
		return t, true
	case *ir.BinOp:
		return joinTaint(get(x.X), get(x.Y)), true
	case *ir.Cmp:
		return joinTaint(get(x.X), get(x.Y)), true
	case *ir.Cast:
		return get(x.X), true
	case *ir.GEP:
		t := get(x.Base)
		for _, ix := range x.Indices {
			if ix.Index != nil {
				t = joinTaint(t, get(ix.Index))
			}
		}
		return t, true
	case *ir.Call:
		return a.transferCall(u, x, get, deps)
	default:
		return Taint{}, false
	}
}

func (a *analysis) transferCall(u *unit, call *ir.Call, get func(ir.Value) Taint, deps map[*ir.Block][]cfgraph.ControlDep) (Taint, bool) {
	callee := call.Callee
	if p := a.cfg.Policy; p != nil {
		// Policy rules take precedence over every built-in modeling of the
		// callee: a sanitizer's result is clean, a configured source's
		// result carries a fresh policy source.
		if p.IsSanitizer(callee.Name) {
			return Taint{}, true
		}
		if r, ok := p.SourceCall(callee.Name); ok {
			src := a.sourceFor(u, call.Pos(), nil, SrcPolicy, "call to "+callee.Name, r.ID)
			t := Taint{}
			t.addSource(src.id, KindData)
			return t, true
		}
	}
	switch {
	case callee.Name == irgen.AssertIntrinsic:
		return Taint{}, false
	case (callee.Name == "recv" || callee.Name == "read") && a.polShm():
		if len(call.Args) > 0 && a.isNonCoreDescriptor(u, call.Args[0]) {
			// A monitored receive (the buffer is named by a core
			// assumption, §3.4.3) covers the whole operation, including
			// the returned length.
			if len(call.Args) > 1 && a.bufferAssumedCore(u, call.Args[1]) {
				return Taint{}, true
			}
			src := a.sourceFor(u, call.Pos(), nil, SrcNonCoreRecv, callee.Name+" on noncore descriptor", policy.RuleNonCoreRecv)
			t := Taint{}
			t.addSource(src.id, KindData)
			return t, true
		}
		return Taint{}, true
	case callee.IsDecl || a.cfg.SF.InitFuncs[callee]:
		// External/library call: the result conservatively depends on the
		// arguments (fabs(x), atan2(y,x), ...).
		t := Taint{}
		for _, arg := range call.Args {
			t = joinTaint(t, get(arg))
		}
		if a.cfg.MissingDefs[callee.Name] {
			// The callee's defining unit was skipped by the recovering
			// front end: its behavior is unknown, so the result carries an
			// unknown-taint source in addition to the argument deps.
			src := a.sourceFor(u, call.Pos(), nil, SrcSkippedDef, callee.Name, policy.RuleSkippedDef)
			t.addSource(src.id, KindData)
		}
		return t, true
	default:
		s := a.calleeUnit(u, call).sum
		t := s.ret.sourcesOnly()
		// Instantiate the summary's symbolic parameter deps with the actual
		// argument taints (data edges keep the argument's kinds; control
		// edges weaken them).
		s.ret.par.data.forEach(func(i int) {
			if i < len(call.Args) {
				t = joinTaint(t, get(call.Args[i]))
			}
		})
		s.ret.par.ctrl.forEach(func(i int) {
			if i < len(call.Args) {
				t = joinTaint(t, get(call.Args[i]).weaken(KindCtrl))
			}
		})
		t = joinTaint(t, a.blockCtrlTaint(call.Parent(), get, deps))
		return t, true
	}
}

// calleeUnit resolves the analysis unit a call from u enters. In summary
// mode the binding is memoized per unit, keeping the string-keyed getUnit
// lookup off the transfer hot path; in exponential mode every call path
// is its own unit, so the path key is built here.
func (a *analysis) calleeUnit(u *unit, call *ir.Call) *unit {
	if a.cfg.Exponential {
		return a.getUnit(call.Callee, u.active, u.key+"@"+call.Pos().String())
	}
	if cu, ok := u.calleeUnits[call.Callee]; ok {
		return cu
	}
	cu := a.getUnit(call.Callee, u.active, "")
	if u.calleeUnits == nil {
		u.calleeUnits = make(map[*ir.Function]*unit)
	}
	u.calleeUnits[call.Callee] = cu
	return cu
}

// isNonCoreDescriptor reports whether the descriptor value traces to a
// parameter annotated noncore.
func (a *analysis) isNonCoreDescriptor(u *unit, v ir.Value) bool {
	if p, ok := v.(*ir.Param); ok {
		return u.noncoreParams[p.Name]
	}
	if c, ok := v.(*ir.Cast); ok {
		return a.isNonCoreDescriptor(u, c.X)
	}
	return false
}

// blockCtrlTaint joins the (control-weakened) taints of the branch
// conditions the block is control dependent on.
func (a *analysis) blockCtrlTaint(b *ir.Block, get func(ir.Value) Taint, deps map[*ir.Block][]cfgraph.ControlDep) Taint {
	t := Taint{}
	for _, d := range deps[b] {
		t = joinTaint(t, get(d.Cond).weaken(KindCtrl))
	}
	return t
}

// ---------------------------------------------------------------------------
// Effects, asserts, returns

// applyEffectsPass scans stores, calls, asserts and returns with the
// solved value taints, updating memories, errors and the new summary.
// It reports whether the local memory overlay changed (requiring another
// inner round).
func (a *analysis) applyEffectsPass(u *unit, facts dataflow.Facts[Taint], local *memStore, deps map[*ir.Block][]cfgraph.ControlDep, sum *summary) bool {
	fn := u.fn
	get := facts.Get
	localChanged := false

	for _, b := range fn.Blocks {
		ctrl := a.blockCtrlTaint(b, get, deps)
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Store:
				if !a.cfg.SF.FactOf(fn, x.Addr).Empty() {
					continue // shared-memory cells are modeled by region reads
				}
				t := joinTaint(get(x.Val), ctrl)
				if t.Empty() {
					continue
				}
				for _, ref := range a.cfg.PTS.PointsTo(x.Addr) {
					if local.write(ref, t) {
						localChanged = true
					}
					a.memWrite(u, ref, t.sourcesOnly())
					if t.hasParams() {
						sum.effects = append(sum.effects, effect{ref: ref, par: t.par})
					}
				}
			case *ir.Call:
				localChanged = a.applyCallEffects(u, x, get, ctrl, local, sum) || localChanged
			case *ir.Ret:
				if x.X != nil {
					// A return executed under tainted control makes the
					// function's result control-dependent on the taint.
					sum.ret = joinTaint(sum.ret, joinTaint(get(x.X), ctrl))
				}
			}
		}
	}
	return localChanged
}

func (a *analysis) applyCallEffects(u *unit, call *ir.Call, get func(ir.Value) Taint, ctrl Taint, local *memStore, sum *summary) bool {
	callee := call.Callee
	localChanged := false

	if p := a.cfg.Policy; p != nil {
		if p.IsSanitizer(callee.Name) {
			return false
		}
		if r, ok := p.Sink(callee.Name); ok {
			// A configured sink: every checked argument that carries taint
			// is an error under the sink's rule; symbolic parameter deps
			// become obligations the callers instantiate.
			args := r.Args
			if len(args) == 0 {
				args = make([]int, len(call.Args))
				for i := range args {
					args[i] = i
				}
			}
			for _, i := range args {
				if i >= len(call.Args) {
					continue
				}
				t := joinTaint(get(call.Args[i]), ctrl)
				vbl := fmt.Sprintf("%s(arg %d)", callee.Name, i)
				if t.HasSources() {
					a.recordError(u, call.Pos(), u.fn.Name, vbl, t, r.ID)
				}
				if t.hasParams() {
					sum.asserts = append(sum.asserts, obligation{
						pos: call.Pos(), fnName: u.fn.Name, vbl: vbl, rule: r.ID, par: t.par,
					})
				}
			}
			return false
		}
		if r, ok := p.Propagator(callee.Name); ok {
			// A declared propagator copies its from-arguments' taint into
			// the memory reachable through the to-argument.
			t := ctrl
			for _, i := range r.From {
				if i < len(call.Args) {
					t = joinTaint(t, get(call.Args[i]))
				}
			}
			if t.Empty() || r.To >= len(call.Args) {
				return false
			}
			for _, ref := range a.cfg.PTS.PointsTo(call.Args[r.To]) {
				if local.write(ref, t) {
					localChanged = true
				}
				a.memWrite(u, ref, t.sourcesOnly())
				if t.hasParams() {
					sum.effects = append(sum.effects, effect{ref: ref, par: t.par})
				}
			}
			return localChanged
		}
	}

	switch {
	case callee.Name == irgen.AssertIntrinsic:
		if len(call.Args) == 0 {
			return false
		}
		t := get(call.Args[0])
		vbl := a.cfg.AssertVars[call]
		if t.HasSources() {
			a.recordError(u, call.Pos(), u.fn.Name, vbl, t, policy.RuleAssertSafe)
		}
		if t.hasParams() {
			sum.asserts = append(sum.asserts, obligation{
				pos: call.Pos(), fnName: u.fn.Name, vbl: vbl, rule: policy.RuleAssertSafe, par: t.par,
			})
		}
		return false
	case callee.Name == "kill" && len(call.Args) > 0 && a.polShm():
		// The paper asserts system-call arguments — specifically the pid
		// argument of kill — as critical data implicitly. Invoking kill at
		// all is the critical action, so the block's control taint joins
		// the argument's value taint.
		t := joinTaint(get(call.Args[0]), ctrl)
		if t.HasSources() {
			a.recordError(u, call.Pos(), u.fn.Name, "kill.pid", t, policy.RuleKillPid)
		}
		if t.hasParams() {
			sum.asserts = append(sum.asserts, obligation{
				pos: call.Pos(), fnName: u.fn.Name, vbl: "kill.pid", rule: policy.RuleKillPid, par: t.par,
			})
		}
		return false
	case (callee.Name == "recv" || callee.Name == "read") && a.polShm() && len(call.Args) > 1 && a.isNonCoreDescriptor(u, call.Args[0]):
		// The received buffer contents become unsafe unless a core
		// assumption names the buffer (monitored receive).
		if a.bufferAssumedCore(u, call.Args[1]) {
			return false
		}
		src := a.sourceFor(u, call.Pos(), nil, SrcNonCoreRecv, callee.Name+" buffer", policy.RuleNonCoreRecv)
		t := Taint{}
		t.addSource(src.id, KindData)
		for _, ref := range a.cfg.PTS.PointsTo(call.Args[1]) {
			if local.write(ref, t) {
				localChanged = true
			}
			a.memWrite(u, ref, t)
		}
		return localChanged
	case callee.IsDecl || a.cfg.SF.InitFuncs[callee]:
		if a.cfg.MissingDefs[callee.Name] {
			// The callee's defining unit was skipped: assume it may write
			// unknown values through every pointer argument.
			src := a.sourceFor(u, call.Pos(), nil, SrcSkippedDef, callee.Name, policy.RuleSkippedDef)
			t := Taint{}
			t.addSource(src.id, KindData)
			for _, arg := range call.Args {
				for _, ref := range a.cfg.PTS.PointsTo(arg) {
					if local.write(ref, t) {
						localChanged = true
					}
					a.memWrite(u, ref, t)
				}
			}
			return localChanged
		}
		return false
	}

	// Defined callee: instantiate its summary's effects and obligations.
	s := a.calleeUnit(u, call).sum
	resolve := func(par kindSet) Taint {
		t := Taint{}
		par.data.forEach(func(i int) {
			if i < len(call.Args) {
				t = joinTaint(t, get(call.Args[i]))
			}
		})
		par.ctrl.forEach(func(i int) {
			if i < len(call.Args) {
				t = joinTaint(t, get(call.Args[i]).weaken(KindCtrl))
			}
		})
		return joinTaint(t, ctrl)
	}
	for _, eff := range s.effects {
		t := resolve(eff.par)
		if t.Empty() {
			continue
		}
		if local.write(eff.ref, t) {
			localChanged = true
		}
		a.memWrite(u, eff.ref, t.sourcesOnly())
		if t.hasParams() {
			sum.effects = append(sum.effects, effect{ref: eff.ref, par: t.par})
		}
	}
	for _, ob := range s.asserts {
		t := resolve(ob.par)
		if t.HasSources() {
			a.recordError(u, ob.pos, ob.fnName, ob.vbl, t, ob.rule)
		}
		if t.hasParams() {
			sum.asserts = append(sum.asserts, obligation{
				pos: ob.pos, fnName: ob.fnName, vbl: ob.vbl, rule: ob.rule, par: t.par,
			})
		}
	}
	return localChanged
}

// bufferAssumedCore reports whether the buffer argument names a local the
// function assumed core (monitored receive).
func (a *analysis) bufferAssumedCore(u *unit, buf ir.Value) bool {
	if len(u.coreLocals) == 0 {
		return false
	}
	for _, ref := range a.cfg.PTS.PointsTo(buf) {
		if al, ok := ref.Obj.Site.(*ir.Alloca); ok && u.coreLocals[al.VarName] {
			return true
		}
	}
	if p, ok := buf.(*ir.Param); ok {
		return u.coreLocals[p.Name]
	}
	return false
}

// memWrite joins t into the global memory store, recording the write on
// the unit when incremental tracking is on and logging a change for the
// staleness check.
func (a *analysis) memWrite(u *unit, ref pointsto.Ref, t Taint) {
	if a.track {
		u.recWrite(ref, t)
	}
	if a.mem.write(ref, t) {
		a.changed.Store(true)
		a.logChange(ref.Obj, u)
	}
}

// recordError merges the taint's concrete sources into the error keyed by
// (position, variable, rule). Ids resolve through srcList first (srcMu),
// then the error map is updated (errMu) — the lock order every path uses.
func (a *analysis) recordError(u *unit, pos ctoken.Pos, fnName, vbl string, t Taint, rule string) {
	if a.track {
		u.recError(pos, fnName, vbl, rule, t)
	}
	type srcKind struct {
		s *Source
		k Kind
	}
	resolved := make([]srcKind, 0, t.src.count())
	a.srcMu.Lock()
	t.src.data.forEach(func(id int) { resolved = append(resolved, srcKind{a.srcList[id], KindData}) })
	t.src.ctrl.forEach(func(id int) { resolved = append(resolved, srcKind{a.srcList[id], KindCtrl}) })
	a.srcMu.Unlock()

	key := pos.String() + "|" + vbl + "|" + rule
	a.errMu.Lock()
	defer a.errMu.Unlock()
	e, ok := a.errors[key]
	if !ok {
		e = &ErrorDep{Pos: pos, FnName: fnName, Var: vbl, Rule: rule, Sources: make(map[*Source]Kind)}
		a.errors[key] = e
	}
	for _, r := range resolved {
		if e.Sources[r.s] < r.k {
			e.Sources[r.s] = r.k
		}
	}
}

// ---------------------------------------------------------------------------
// Summary comparison

func summaryEqual(a, b summary) bool {
	if !equalTaint(a.ret, b.ret) {
		return false
	}
	if len(a.effects) != len(b.effects) || len(a.asserts) != len(b.asserts) {
		return false
	}
	effKey := func(e effect) string {
		return fmt.Sprintf("%v|%v", e.ref, paramsKey(e.par))
	}
	ae, be := make(map[string]bool), make(map[string]bool)
	for _, e := range a.effects {
		ae[effKey(e)] = true
	}
	for _, e := range b.effects {
		be[effKey(e)] = true
	}
	if len(ae) != len(be) {
		return false
	}
	for k := range ae {
		if !be[k] {
			return false
		}
	}
	obKey := func(o obligation) string {
		return o.pos.String() + "|" + o.vbl + "|" + o.rule + "|" + paramsKey(o.par)
	}
	ao, bo := make(map[string]bool), make(map[string]bool)
	for _, o := range a.asserts {
		ao[obKey(o)] = true
	}
	for _, o := range b.asserts {
		bo[obKey(o)] = true
	}
	if len(ao) != len(bo) {
		return false
	}
	for k := range ao {
		if !bo[k] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Memory taint store

type memStore struct {
	mu    sync.RWMutex
	cells map[pointsto.Ref]Taint
	byObj map[*pointsto.Object]map[int64]bool
}

func newMemStore() *memStore {
	return &memStore{
		cells: make(map[pointsto.Ref]Taint),
		byObj: make(map[*pointsto.Object]map[int64]bool),
	}
}

// write joins t into the cell at ref; shared-memory objects are excluded
// (their contents are modeled by the region/monitor logic, not cells).
func (m *memStore) write(ref pointsto.Ref, t Taint) bool {
	if t.Empty() || ref.Obj.Kind == pointsto.ObjShm {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old, had := m.cells[ref]
	merged := joinTaint(old, t)
	if had && equalTaint(old, merged) {
		return false
	}
	m.cells[ref] = merged
	offs := m.byObj[ref.Obj]
	if offs == nil {
		offs = make(map[int64]bool)
		m.byObj[ref.Obj] = offs
	}
	offs[ref.Off] = true
	return true
}

// read returns the taint visible to a load at ref: the exact cell plus the
// object's summary cell, or every cell when the offset is unknown.
func (m *memStore) read(ref pointsto.Ref) Taint {
	if ref.Obj.Kind == pointsto.ObjShm {
		return Taint{}
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if ref.Off != pointsto.UnknownOffset {
		t := m.cells[ref]
		return joinTaint(t, m.cells[pointsto.Ref{Obj: ref.Obj, Off: pointsto.UnknownOffset}])
	}
	t := Taint{}
	for off := range m.byObj[ref.Obj] {
		t = joinTaint(t, m.cells[pointsto.Ref{Obj: ref.Obj, Off: off}])
	}
	return t
}

// ---------------------------------------------------------------------------
// Result assembly

func (a *analysis) finish() *Result {
	res := &Result{
		UnitsAnalyzed: int(a.solves.Load()),
		Transfers:     a.transfers.Load(),
		SweptInstrs:   a.swept.Load(),
		SCCs:          len(a.cfg.CG.BottomUp()),
		Rounds:        a.rounds,
	}
	a.intMu.Lock()
	res.Internal = append(res.Internal, a.internal...)
	a.intMu.Unlock()
	// Worker completion order is nondeterministic; the rendered report
	// must not be.
	sort.Slice(res.Internal, func(i, j int) bool {
		return res.Internal[i].Error() < res.Internal[j].Error()
	})
	for _, s := range a.sources {
		res.Warnings = append(res.Warnings, s)
	}
	sort.Slice(res.Warnings, func(i, j int) bool { return sourceLess(res.Warnings[i], res.Warnings[j]) })
	for _, e := range a.errors {
		strongest := KindNone
		for _, k := range e.Sources {
			strongest = maxKind(strongest, k)
		}
		e.ControlOnly = strongest == KindCtrl
		res.Errors = append(res.Errors, e)
	}
	// (file, line, col, name): a total order, so parallel and sequential
	// schedules render byte-identical reports.
	sort.Slice(res.Errors, func(i, j int) bool {
		ei, ej := res.Errors[i], res.Errors[j]
		if ei.Pos != ej.Pos {
			return posLess(ei.Pos, ej.Pos)
		}
		if ei.Var != ej.Var {
			return ei.Var < ej.Var
		}
		return ei.Rule < ej.Rule
	})
	return res
}

func posLess(a, b ctoken.Pos) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// sourceLess is the total order on sources: position, then kind, region
// and detail as tiebreakers so no two distinct sources ever compare equal.
func sourceLess(a, b *Source) bool {
	if a.Pos != b.Pos {
		return posLess(a.Pos, b.Pos)
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	an, bn := "", ""
	if a.Region != nil {
		an = a.Region.Name
	}
	if b.Region != nil {
		bn = b.Region.Name
	}
	if an != bn {
		return an < bn
	}
	if a.Detail != b.Detail {
		return a.Detail < b.Detail
	}
	return a.Rule < b.Rule
}
