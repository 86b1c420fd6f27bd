// Incremental re-analysis: the phase-3 scheduler's persistent dependency
// graph and fine-grained invalidation.
//
// A tracked run records, per (function, context) unit, everything the unit
// contributed to the analysis beyond its summary: the global memory cells
// it wrote, the cells it read, the sources it interned and the errors it
// recorded — all in the portable (pointer-free) forms of portable.go.
// The captured IncrState also fingerprints every defined function: a body
// hash (name, positions, IR structure, assert annotations, function
// facts) plus an environment hash (the shm facts, points-to footprints and
// callee identities its transfer functions consult).
//
// Every tracked run — a session update, or a plain analysis that loaded
// the last converged state of its system from a cache's state tier
// (internal/cache) — goes
// through runIncremental; a run with no previous state is an update from
// empty state.
//
// On the next run, functions whose fingerprint changed are dirty; the
// dirty set plus its transitive caller cone in the (new) call graph is
// invalidated, while every unit outside the cone is *replayed*: its
// recorded summary, writes, sources and errors are installed verbatim
// instead of re-solving. Replay is sound because
//   - a replayed unit's fingerprints are unchanged, so its local transfer
//     behavior is identical;
//   - its callees are outside the cone too (the cone is caller-closed),
//     so the callee summaries it depended on are also unchanged;
//   - taints only grow under join, so the union of recorded writes over
//     all of a unit's solves equals its final-round writes.
// Inside the cone the same argument gives *early cutoff*: a unit of a
// function that is not itself dirty, in a non-recursive SCC, is replayed
// from its record when the bottom-up wave finds that every callee unit it
// consults was replayed or solved to a summary canonically equal to its
// previous record. So an edit that leaves a function's summary unchanged
// re-solves only that function's units.
//
// Two inputs replay cannot see locally are re-checked after convergence.
// A cut-off unit's callee may re-solve in a later round to a different
// summary: every cut-off unit's callees are compared again, and a mismatch
// marks the unit dirty. The global memory store may move (a re-solved
// unit may now write different taints into cells a replayed unit read):
// a verification diffs the previous run's portable cells against the new
// ones, and any replayed unit that read a changed cell is marked dirty.
// Either way the analysis restarts with the larger cone. Restarts are
// capped; the cap falls back to a full (tracked) solve, which is always
// correct.
//
// Degraded runs never participate: Config.Incr is ignored when
// MissingDefs is non-empty, so a degraded run captures no state and
// skipped-def summaries are never reused across runs.

package vfg

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"safeflow/internal/annot"
	"safeflow/internal/callgraph"
	"safeflow/internal/ctoken"
	"safeflow/internal/ctypes"
	"safeflow/internal/ir"
	"safeflow/internal/pointsto"
	"safeflow/internal/shmflow"
)

// IncrOptions switches Run to incremental mode.
type IncrOptions struct {
	// Prev is the state captured by the previous run; nil means "first
	// run": solve everything, but track and capture state for next time.
	Prev *IncrState
	// BodyHashes, when non-nil, supplies precomputed per-function body
	// hashes (from the incremental frontend's fragment cache) keyed by
	// function name; functions not in the map are hashed here.
	BodyHashes map[string]uint64
	// Fingerprints, when set, are every function's fingerprints from an
	// earlier run over the same module, shm facts, points-to result and
	// assert names with no MissingDefs (IncrState.Fingerprints); the run
	// uses them instead of hashing. BodyHashes is then ignored.
	Fingerprints Fingerprints
}

// Fingerprints are the per-function fingerprints (body and environment
// hashes) of one run. They are shared by every run handed them and by
// every state captured from such a run, so nothing modifies them.
type Fingerprints struct {
	fns map[string]fnFingerprint
}

// Fingerprints returns the function fingerprints the state was captured
// with.
func (st *IncrState) Fingerprints() Fingerprints { return Fingerprints{st.fnFP} }

// IncrState is the persistent dependency-graph snapshot of one converged
// run: per-function fingerprints plus per-unit replay records. Opaque to
// callers; produced by Result.NextIncr and passed back via IncrOptions.
type IncrState struct {
	fnFP     map[string]fnFingerprint
	regionFP uint64
	units    map[string]*unitRecord
	cells    map[pRef]pTaint
}

// fnFingerprint identifies one function's analysis-relevant content.
type fnFingerprint struct {
	body uint64 // name, positions, IR structure, asserts, facts
	env  uint64 // shm facts, points-to footprints, callee identities
}

// unitRecord is everything one converged unit contributed to the run.
type unitRecord struct {
	fn      string
	sum     pSummary
	writes  []pCell   // global memory cells written (joined over solves)
	reads   []pRef    // global memory cells read
	sources []pCtxSrc // sources interned via sourceFor, with context keys
	errors  []pError  // error dependencies recorded
}

type pCtxSrc struct {
	src pSrc
	ctx string
}

type pError struct {
	pos     ctoken.Pos
	fn, vbl string
	rule    string
	srcs    []pSrcTaint
}

// IncrStats reports what an incremental run invalidated and reused.
type IncrStats struct {
	// FuncsInvalidated is the size of the invalidation cone (dirty
	// functions plus transitive callers); FuncsReused is the remainder.
	FuncsInvalidated int
	FuncsReused      int
	// UnitsReplayed/UnitsSolved partition the final unit closure.
	UnitsReplayed int
	UnitsSolved   int
	// UnitsCutOff counts the replayed units inside the invalidation cone:
	// installed by early cutoff because their callees kept their summaries.
	UnitsCutOff int
	// Restarts counts verification-triggered cone expansions.
	Restarts int
}

// ---------------------------------------------------------------------------
// Fingerprints

// fnvHash is the incremental FNV-1a mixer. Integers enter it as zigzag
// varints, so the small numbers that dominate (positions, value numbers,
// counts) cost one or two bytes of mixing rather than eight.
type fnvHash struct{ h uint64 }

func newFNV() *fnvHash { return &fnvHash{h: 14695981039346656037} }

func (f *fnvHash) byte(b byte) { f.h = (f.h ^ uint64(b)) * 1099511628211 }

func (f *fnvHash) int(n int64) {
	u := uint64(n<<1) ^ uint64(n>>63)
	for u >= 0x80 {
		f.byte(byte(u) | 0x80)
		u >>= 7
	}
	f.byte(byte(u))
}

func (f *fnvHash) str(s string) {
	f.int(int64(len(s)))
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
}

func (f *fnvHash) bool(b bool) {
	if b {
		f.byte(1)
	} else {
		f.byte(0)
	}
}

// HashFunctionBody fingerprints one function's own content: its name,
// position and signature, then every block (label, predecessors) and
// instruction (opcode, position, dense value number, operands, operator
// kind, types, assert variable), and the function's annotation facts.
// Two functions with equal hashes print identically and have identical
// local transfer behavior under identical environments. It walks the IR
// without printing, so it assigns no SSA names and writes nothing into
// the function; an instruction, operand or type kind it does not know
// panics, so a new kind cannot go unhashed. Exported for the incremental
// frontend, which hashes fragment functions at compile time so unchanged
// fragments can reuse their hashes.
func HashFunctionBody(fn *ir.Function, assertVars map[*ir.Call]string) uint64 {
	b := &bodyHasher{fnvHash: *newFNV()}
	b.str(fn.Name)
	b.pos(fn.Pos)
	b.bool(fn.IsDecl)
	b.int(int64(len(fn.Params)))
	for _, p := range fn.Params {
		b.typ(p.Ty)
		b.str(p.Name)
	}
	if fn.Sig != nil {
		b.typ(fn.Sig.Result)
	}
	b.int(int64(len(fn.Blocks)))
	for _, blk := range fn.Blocks {
		b.str(blk.Label)
		b.int(int64(len(blk.Preds)))
		for _, p := range blk.Preds {
			b.int(int64(p.Index))
		}
		b.int(int64(len(blk.Instrs)))
		for _, in := range blk.Instrs {
			b.instr(in, assertVars)
		}
	}
	if ff, ok := fn.Facts.(*annot.FuncFacts); ok && ff != nil {
		b.bool(ff.IsShmInit)
		b.int(int64(len(ff.Core)))
		for _, cf := range ff.Core {
			b.str(cf.Ptr)
			b.int(cf.Offset)
			b.int(cf.Size)
		}
		b.int(int64(len(ff.ShmVars)))
		for _, sv := range ff.ShmVars {
			b.str(sv.Ptr)
			b.int(sv.Size)
		}
		b.int(int64(len(ff.NonCore)))
		for _, nc := range ff.NonCore {
			b.str(nc.Name)
		}
	}
	return b.h
}

// bodyHasher is HashFunctionBody's walk state: the running hash and the
// file of the last position mixed, since consecutive instructions almost
// always share it.
type bodyHasher struct {
	fnvHash
	file string
}

// Instruction opcode tags.
const (
	opAlloca byte = iota + 1
	opLoad
	opStore
	opGEP
	opBinOp
	opCmp
	opCast
	opCall
	opPhi
	opRet
	opBr
	opUnreachable
)

// Operand tags.
const (
	valNil byte = iota + 1
	valConstInt
	valConstFloat
	valConstStr
	valGlobal
	valParam
	valFunc
	valAlloca
	valInstr
)

// pos mixes a position; a file equal to the previous position's is
// mixed as one marker byte.
func (b *bodyHasher) pos(p ctoken.Pos) {
	if p.File == b.file {
		b.byte(0)
	} else {
		b.byte(1)
		b.str(p.File)
		b.file = p.File
	}
	b.int(int64(p.Line))
	b.int(int64(p.Col))
}

// Type tags.
const (
	tyNil byte = iota + 1
	tyBasic
	tyPointer
	tyArray
	tyStruct
	tyFunc
)

// typ mixes a type by structure, covering exactly what its printed form
// shows: a struct by kind and tag (field names when untagged), as
// ctypes prints it.
func (b *bodyHasher) typ(t ctypes.Type) {
	switch x := t.(type) {
	case nil:
		b.byte(tyNil)
	case *ctypes.Basic:
		b.byte(tyBasic)
		b.int(int64(x.Kind))
	case *ctypes.Pointer:
		b.byte(tyPointer)
		b.typ(x.Elem)
	case *ctypes.Array:
		b.byte(tyArray)
		b.int(x.Len)
		b.typ(x.Elem)
	case *ctypes.Struct:
		b.byte(tyStruct)
		b.bool(x.IsUnion)
		b.str(x.Tag)
		if x.Tag == "" {
			b.int(int64(len(x.Fields)))
			for _, f := range x.Fields {
				b.str(f.Name)
			}
		}
	case *ctypes.Func:
		b.byte(tyFunc)
		b.typ(x.Result)
		b.int(int64(len(x.Params)))
		for _, p := range x.Params {
			b.typ(p)
		}
		b.bool(x.Variadic)
	default:
		panic(fmt.Sprintf("vfg: HashFunctionBody: unhandled type %T", t))
	}
}

// val mixes one operand: constants by value and type, globals and
// functions by name and type, parameters by index and name, and
// instruction results by their dense value number.
func (b *bodyHasher) val(v ir.Value) {
	switch x := v.(type) {
	case nil:
		b.byte(valNil)
	case *ir.ConstInt:
		b.byte(valConstInt)
		b.int(x.Val)
		b.typ(x.Ty)
	case *ir.ConstFloat:
		b.byte(valConstFloat)
		b.int(int64(math.Float64bits(x.Val)))
		b.typ(x.Ty)
	case *ir.ConstStr:
		b.byte(valConstStr)
		b.str(x.Val)
	case *ir.Global:
		b.byte(valGlobal)
		b.str(x.Name)
		b.typ(x.Elem)
	case *ir.Param:
		b.byte(valParam)
		b.int(int64(x.Index))
		b.str(x.Name)
	case *ir.Function:
		b.byte(valFunc)
		b.str(x.Name)
		b.typ(x.Sig)
	case *ir.Alloca:
		b.byte(valAlloca)
		b.int(int64(ir.ValueNum(x)))
		b.str(x.VarName)
	case ir.Instr:
		b.byte(valInstr)
		b.int(int64(ir.ValueNum(v)))
	default:
		panic(fmt.Sprintf("vfg: HashFunctionBody: unhandled operand %T", v))
	}
}

func (b *bodyHasher) instr(in ir.Instr, assertVars map[*ir.Call]string) {
	switch x := in.(type) {
	case *ir.Alloca:
		b.byte(opAlloca)
		b.typ(x.Elem)
		b.str(x.VarName)
	case *ir.Load:
		b.byte(opLoad)
		b.val(x.Addr)
	case *ir.Store:
		b.byte(opStore)
		b.val(x.Val)
		b.val(x.Addr)
	case *ir.GEP:
		b.byte(opGEP)
		b.val(x.Base)
		b.int(int64(len(x.Indices)))
		for _, ix := range x.Indices {
			b.int(int64(ix.Field))
			b.val(ix.Index)
		}
		b.typ(x.ResultT)
	case *ir.BinOp:
		b.byte(opBinOp)
		b.int(int64(x.Op))
		b.typ(x.Ty)
		b.val(x.X)
		b.val(x.Y)
	case *ir.Cmp:
		b.byte(opCmp)
		b.int(int64(x.Op))
		b.val(x.X)
		b.val(x.Y)
	case *ir.Cast:
		b.byte(opCast)
		b.int(int64(x.Kind))
		b.val(x.X)
		b.typ(x.To)
	case *ir.Call:
		b.byte(opCall)
		b.str(x.Callee.Name)
		b.typ(x.Callee.Sig)
		b.int(int64(len(x.Args)))
		for _, arg := range x.Args {
			b.val(arg)
		}
		b.str(assertVars[x])
	case *ir.Phi:
		b.byte(opPhi)
		b.typ(x.Ty)
		b.str(x.Var)
		b.int(int64(len(x.Edges)))
		for _, e := range x.Edges {
			b.val(e.Val)
			b.int(int64(e.Pred.Index))
		}
	case *ir.Ret:
		b.byte(opRet)
		b.val(x.X)
	case *ir.Br:
		b.byte(opBr)
		b.val(x.Cond)
		b.int(int64(x.Then.Index))
		if x.Else != nil {
			b.int(int64(x.Else.Index))
		} else {
			b.int(-1)
		}
	case *ir.Unreachable:
		b.byte(opUnreachable)
	default:
		panic(fmt.Sprintf("vfg: HashFunctionBody: unhandled instruction %T", in))
	}
	b.pos(in.Pos())
	num := -1
	if v, ok := in.(ir.Value); ok {
		num = ir.ValueNum(v)
	}
	b.int(int64(num))
}

func mixFact(h *fnvHash, f shmflow.Fact) {
	names := make([]string, 0, len(f))
	ivs := make(map[string]string, len(f))
	for reg, iv := range f {
		names = append(names, reg.Name)
		ivs[reg.Name] = iv.String()
	}
	sort.Strings(names)
	h.int(int64(len(names)))
	for _, n := range names {
		h.str(n)
		h.str(ivs[n])
	}
}

// refHash hashes one points-to ref by its object's stable description
// (kind, name, owning function, allocation site) and offset, never by
// object id, then finalizes it (splitmix64) so that a sum of ref hashes
// is a sound set hash.
func refHash(r pointsto.Ref) uint64 {
	d := descOf(r.Obj)
	h := newFNV()
	h.int(int64(d.kind))
	h.str(d.name)
	h.str(d.fn)
	h.str(d.pos.File)
	h.int(int64(d.pos.Line))
	h.int(int64(d.pos.Col))
	h.int(r.Off)
	x := h.h
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// envHashOf fingerprints everything outside the function body that its
// transfer functions consult: init-function status, parameter shm facts,
// per-load/store shm facts and points-to footprints, and per-call callee
// identity (name, decl/init status, skipped-def status) plus argument
// points-to footprints. The shared-memory region shapes are covered
// separately by regionFingerprint (a region change invalidates all).
func envHashOf(cfg *Config, fn *ir.Function) uint64 {
	h := newFNV()
	h.bool(cfg.SF.InitFuncs[fn])
	// A points-to set hashes as its size and the sum of its refs' hashes:
	// order-independent, so the set is read in place, unsorted.
	mixRefs := func(v ir.Value) {
		var n int64
		var sum uint64
		cfg.PTS.EachPointsTo(v, func(r pointsto.Ref) {
			n++
			sum += refHash(r)
		})
		h.int(n)
		h.int(int64(sum))
	}
	for _, p := range fn.Params {
		mixFact(h, cfg.SF.FactOf(fn, p))
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Load:
				mixFact(h, cfg.SF.FactOf(fn, x.Addr))
				mixRefs(x.Addr)
			case *ir.Store:
				mixFact(h, cfg.SF.FactOf(fn, x.Addr))
				mixRefs(x.Addr)
			case *ir.Call:
				h.str(x.Callee.Name)
				h.bool(x.Callee.IsDecl)
				h.bool(cfg.SF.InitFuncs[x.Callee])
				h.bool(cfg.MissingDefs[x.Callee.Name])
				for _, arg := range x.Args {
					mixRefs(arg)
				}
			}
		}
	}
	return h.h
}

// regionFingerprint hashes the shared-memory region shapes. A change here
// can alter covers() results in every unit, so it invalidates everything.
func regionFingerprint(sf *shmflow.Result) uint64 {
	h := newFNV()
	names := make([]string, 0, len(sf.Regions))
	byName := make(map[string]*shmflow.Region, len(sf.Regions))
	for _, r := range sf.Regions {
		names = append(names, r.Name)
		byName[r.Name] = r
	}
	sort.Strings(names)
	h.int(int64(len(names)))
	for _, n := range names {
		r := byName[n]
		h.str(r.Name)
		h.int(r.Size)
		h.bool(r.NonCore)
		if r.Init != nil {
			h.str(r.Init.Name)
		}
		if r.Global != nil {
			h.str(r.Global.Name)
		}
	}
	return h.h
}

// computeFingerprints fingerprints every defined function, preferring
// fingerprints handed in whole, then the frontend's precomputed body
// hashes.
func computeFingerprints(cfg *Config) map[string]fnFingerprint {
	var hints map[string]uint64
	if cfg.Incr != nil {
		if fps := cfg.Incr.Fingerprints.fns; fps != nil {
			return fps
		}
		hints = cfg.Incr.BodyHashes
	}
	fps := make(map[string]fnFingerprint)
	for _, fn := range cfg.Module.Funcs {
		if fn.IsDecl {
			continue
		}
		body, ok := hints[fn.Name]
		if !ok {
			body = HashFunctionBody(fn, cfg.AssertVars)
		}
		fps[fn.Name] = fnFingerprint{body: body, env: envHashOf(cfg, fn)}
	}
	return fps
}

// callerClosure expands the dirty set to its transitive caller cone in
// the new call graph. SCCs are uniformly in or out: any member of a cycle
// is a (transitive) caller of every other member.
func callerClosure(cg *callgraph.Graph, m *ir.Module, dirty map[string]bool) map[string]bool {
	cone := make(map[string]bool, len(dirty))
	var queue []*ir.Function
	for _, fn := range m.Funcs {
		if dirty[fn.Name] {
			cone[fn.Name] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, c := range cg.Callers[fn] {
			if !cone[c.Name] {
				cone[c.Name] = true
				queue = append(queue, c)
			}
		}
	}
	return cone
}

// ---------------------------------------------------------------------------
// Replay plan

// dryRegion reports whether a portable region name resolves in this run.
func (a *analysis) dryRegion(name string) bool {
	if name == "" {
		return true
	}
	_, ok := a.cfg.SF.RegionByName[name]
	return ok
}

func (a *analysis) drySrcs(srcs []pSrcTaint) bool {
	for _, st := range srcs {
		if !a.dryRegion(st.src.key.region) {
			return false
		}
	}
	return true
}

func (b *binder) dryRef(r pRef) bool {
	o, ok := b.objs[r.obj]
	return ok && o != nil
}

// dryCheckRecord verifies every descriptor in the record rebinds
// unambiguously in this run — without interning anything, so excluded
// records leave no trace (an interned source for a unit that never
// materializes would over-report warnings).
func (a *analysis) dryCheckRecord(b *binder, rec *unitRecord) bool {
	if !a.drySrcs(rec.sum.ret.srcs) {
		return false
	}
	for _, e := range rec.sum.effects {
		if !b.dryRef(e.ref) {
			return false
		}
	}
	for _, c := range rec.writes {
		if !b.dryRef(c.ref) || !a.drySrcs(c.taint.srcs) {
			return false
		}
	}
	for _, s := range rec.sources {
		if !a.dryRegion(s.src.key.region) {
			return false
		}
	}
	for _, e := range rec.errors {
		if !a.drySrcs(e.srcs) {
			return false
		}
	}
	return true
}

// buildReplayPlan selects the previous run's records that may be reused:
// units of functions outside the invalidation cone, installed at getUnit,
// and units of the cone's functions that are not dirty, the candidates
// for early cutoff. Only records whose descriptors all rebind qualify. A
// record that fails the dry check is simply dropped — its unit re-solves
// normally, which by fingerprint induction produces the same summary, so
// callers' replays stay valid.
func (a *analysis) buildReplayPlan(prev *IncrState, cone, dirty map[string]bool) (replay, cutoff map[string]*unitRecord) {
	replay = make(map[string]*unitRecord, len(prev.units))
	cutoff = make(map[string]*unitRecord)
	for key, rec := range prev.units {
		if rec == nil || dirty[rec.fn] {
			continue
		}
		if !a.dryCheckRecord(a.replayBinder, rec) {
			continue
		}
		if cone[rec.fn] {
			cutoff[key] = rec
		} else {
			replay[key] = rec
		}
	}
	return replay, cutoff
}

// ---------------------------------------------------------------------------
// Replay install (called from getUnit under a.mu)

func (a *analysis) sourceFromKeyCtx(p pSrc, ctx string) (*Source, bool) {
	s, ok := a.sourceFromKey(p)
	if !ok {
		return nil, false
	}
	a.srcMu.Lock()
	s.Contexts[ctx] = true
	a.srcMu.Unlock()
	return s, true
}

// installReplay installs a record into a unit that was never solved:
// summary, global-memory writes, interned sources (with their context
// keys) and error dependencies. Bind-first, then commit; after the plan's
// dry check a bind failure cannot occur, but a failed install still
// leaves the unit solvable (partial writes are join-only and a subset of
// what the solve will write).
func (a *analysis) installReplay(u *unit, rec *unitRecord) bool {
	b := a.replayBinder
	sum, ok := b.bindSummary(rec.sum)
	if !ok {
		return false
	}
	type memWr struct {
		ref pointsto.Ref
		t   Taint
	}
	writes := make([]memWr, 0, len(rec.writes))
	for _, c := range rec.writes {
		ref, ok := b.bindRef(c.ref)
		if !ok {
			return false
		}
		t, ok := b.bindTaint(c.taint)
		if !ok {
			return false
		}
		writes = append(writes, memWr{ref, t})
	}
	u.sum = sum
	u.sumSeq = a.seq.Add(1)
	for _, w := range writes {
		if a.mem.write(w.ref, w.t) {
			a.logChange(w.ref.Obj, u)
		}
	}
	for _, cs := range rec.sources {
		if _, ok := a.sourceFromKeyCtx(cs.src, cs.ctx); !ok {
			return false
		}
	}
	for _, pe := range rec.errors {
		a.replayError(pe)
	}
	u.replayed, u.rec = true, rec
	return true
}

// tryCutoff replays a cone unit's previous record instead of solving it
// when every callee unit it consults kept its previous summary (early
// cutoff). The wave calls it for never-solved units of non-recursive
// SCCs only, after every callee SCC has finished.
func (a *analysis) tryCutoff(u *unit) bool {
	rec := a.cutoff[u.key]
	if rec == nil || u.start != 0 || !calleesKept(u) {
		return false
	}
	if !a.installReplay(u, rec) {
		return false
	}
	u.cutOff = true
	return true
}

// noteKept records, after a solve in an incremental run, whether u's
// summary is canonically equal to its previous record's. Source ids
// differ between runs, so the comparison is on the portable form.
func (a *analysis) noteKept(u *unit) {
	prev := a.prev.units[u.key]
	u.kept = prev != nil && canonPSummary(a.exportSummary(u.sum)) == canonPSummary(prev.sum)
}

// calleesKept reports whether every callee unit of u holds the summary
// its previous record holds: replayed (installed or cut off), or solved
// to an equal summary.
func calleesKept(u *unit) bool {
	for _, cu := range u.calleeUnits {
		if !cu.replayed && !cu.kept {
			return false
		}
	}
	return true
}

// replayError re-records one portable error dependency, following the
// run's lock order (sources resolve under srcMu, then errMu).
func (a *analysis) replayError(pe pError) {
	type srcKind struct {
		s *Source
		k Kind
	}
	resolved := make([]srcKind, 0, len(pe.srcs))
	for _, st := range pe.srcs {
		s, ok := a.sourceFromKey(st.src)
		if !ok {
			continue
		}
		resolved = append(resolved, srcKind{s, st.k})
	}
	key := pe.pos.String() + "|" + pe.vbl + "|" + pe.rule
	a.errMu.Lock()
	defer a.errMu.Unlock()
	e, ok := a.errors[key]
	if !ok {
		e = &ErrorDep{Pos: pe.pos, FnName: pe.fn, Var: pe.vbl, Rule: pe.rule, Sources: make(map[*Source]Kind)}
		a.errors[key] = e
	}
	for _, r := range resolved {
		if e.Sources[r.s] < r.k {
			e.Sources[r.s] = r.k
		}
	}
}

// ---------------------------------------------------------------------------
// Tracking (per-unit; units solve on one goroutine at a time)

type recSrcKey struct {
	key     srcKey
	fn, ctx string
}

type recErrVal struct {
	pos     ctoken.Pos
	fn, vbl string
	rule    string
	t       Taint
}

func (u *unit) recWrite(ref pointsto.Ref, t Taint) {
	if t.Empty() || ref.Obj.Kind == pointsto.ObjShm {
		return
	}
	if u.recWrites == nil {
		u.recWrites = make(map[pointsto.Ref]Taint)
	}
	u.recWrites[ref] = joinTaint(u.recWrites[ref], t)
}

func (u *unit) recRead(ref pointsto.Ref) {
	if ref.Obj.Kind == pointsto.ObjShm {
		return
	}
	if u.recReads == nil {
		u.recReads = make(map[pointsto.Ref]bool)
	}
	u.recReads[ref] = true
}

func (u *unit) recSrc(k srcKey, fn, ctx string) {
	if u.recSrcs == nil {
		u.recSrcs = make(map[recSrcKey]bool)
	}
	u.recSrcs[recSrcKey{key: k, fn: fn, ctx: ctx}] = true
}

func (u *unit) recError(pos ctoken.Pos, fn, vbl, rule string, t Taint) {
	if u.recErrs == nil {
		u.recErrs = make(map[string]*recErrVal)
	}
	key := pos.String() + "|" + vbl + "|" + rule
	if e, ok := u.recErrs[key]; ok {
		e.t = joinTaint(e.t, t)
		return
	}
	u.recErrs[key] = &recErrVal{pos: pos, fn: fn, vbl: vbl, rule: rule, t: t}
}

// ---------------------------------------------------------------------------
// Capture

func pRefOf(ref pointsto.Ref) pRef {
	return pRef{obj: descOf(ref.Obj), off: ref.Off}
}

func pRefLess(x, y pRef) bool {
	if x.obj.kind != y.obj.kind {
		return x.obj.kind < y.obj.kind
	}
	if x.obj.name != y.obj.name {
		return x.obj.name < y.obj.name
	}
	if x.obj.fn != y.obj.fn {
		return x.obj.fn < y.obj.fn
	}
	if x.obj.pos != y.obj.pos {
		return posLess(x.obj.pos, y.obj.pos)
	}
	return x.off < y.off
}

// mergePTaint unions two portable taints: (source, kind) entries as a
// set, parameter kinds by max — exactly joinTaint's effect in portable
// form. Used when distinct run objects collapse to one descriptor.
func mergePTaint(x, y pTaint) pTaint {
	out := pTaint{}
	seen := make(map[pSrcTaint]bool, len(x.srcs)+len(y.srcs))
	for _, st := range x.srcs {
		if !seen[st] {
			seen[st] = true
			out.srcs = append(out.srcs, st)
		}
	}
	for _, st := range y.srcs {
		if !seen[st] {
			seen[st] = true
			out.srcs = append(out.srcs, st)
		}
	}
	if len(x.params)+len(y.params) > 0 {
		out.params = make(map[int]Kind, len(x.params)+len(y.params))
		for i, k := range x.params {
			if out.params[i] < k {
				out.params[i] = k
			}
		}
		for i, k := range y.params {
			if out.params[i] < k {
				out.params[i] = k
			}
		}
	}
	return out
}

// captureState snapshots the converged run. Replayed units keep their
// previous records verbatim; solved units export their tracked state.
func (a *analysis) captureState(fps map[string]fnFingerprint, regionFP uint64) *IncrState {
	st := &IncrState{
		fnFP:     fps,
		regionFP: regionFP,
		units:    make(map[string]*unitRecord, len(a.unitList)),
		cells:    make(map[pRef]pTaint),
	}
	for _, u := range a.unitList {
		if u.replayed {
			st.units[u.key] = u.rec
			continue
		}
		rec := &unitRecord{fn: u.fn.Name, sum: a.exportSummary(u.sum)}
		if len(u.recWrites) > 0 {
			rec.writes = make([]pCell, 0, len(u.recWrites))
			for ref, t := range u.recWrites {
				rec.writes = append(rec.writes, pCell{ref: pRefOf(ref), taint: a.exportTaint(t)})
			}
			sort.Slice(rec.writes, func(i, j int) bool { return pRefLess(rec.writes[i].ref, rec.writes[j].ref) })
		}
		if len(u.recReads) > 0 {
			rec.reads = make([]pRef, 0, len(u.recReads))
			for ref := range u.recReads {
				rec.reads = append(rec.reads, pRefOf(ref))
			}
			sort.Slice(rec.reads, func(i, j int) bool { return pRefLess(rec.reads[i], rec.reads[j]) })
		}
		if len(u.recSrcs) > 0 {
			keys := make([]recSrcKey, 0, len(u.recSrcs))
			for k := range u.recSrcs {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				ki, kj := keys[i], keys[j]
				if ki.key != kj.key {
					if ki.key.pos != kj.key.pos {
						return posLess(ki.key.pos, kj.key.pos)
					}
					if ki.key.kind != kj.key.kind {
						return ki.key.kind < kj.key.kind
					}
					if ki.key.region != kj.key.region {
						return ki.key.region < kj.key.region
					}
					if ki.key.detail != kj.key.detail {
						return ki.key.detail < kj.key.detail
					}
					return ki.key.rule < kj.key.rule
				}
				if ki.fn != kj.fn {
					return ki.fn < kj.fn
				}
				return ki.ctx < kj.ctx
			})
			for _, k := range keys {
				rec.sources = append(rec.sources, pCtxSrc{src: pSrc{key: k.key, fn: k.fn}, ctx: k.ctx})
			}
		}
		if len(u.recErrs) > 0 {
			keys := make([]string, 0, len(u.recErrs))
			for k := range u.recErrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				e := u.recErrs[k]
				rec.errors = append(rec.errors, pError{
					pos: e.pos, fn: e.fn, vbl: e.vbl, rule: e.rule, srcs: a.exportTaint(e.t).srcs,
				})
			}
		}
		st.units[u.key] = rec
	}
	a.mem.mu.RLock()
	for ref, t := range a.mem.cells {
		pr := pRefOf(ref)
		pt := a.exportTaint(t)
		if old, ok := st.cells[pr]; ok {
			pt = mergePTaint(old, pt)
		}
		st.cells[pr] = pt
	}
	a.mem.mu.RUnlock()
	return st
}

// ---------------------------------------------------------------------------
// Verification

// canonPTaint renders a portable taint to a canonical string: interned
// source ids differ run to run, so entries sort by content.
func canonPTaint(p pTaint) string {
	entries := make([]string, 0, len(p.srcs))
	for _, st := range p.srcs {
		entries = append(entries, st.src.key.pos.String()+"\x01"+
			strconv.Itoa(int(st.src.key.kind))+"\x01"+st.src.key.region+"\x01"+
			st.src.key.detail+"\x01"+st.src.key.rule+"\x01"+st.src.fn+"\x01"+strconv.Itoa(int(st.k)))
	}
	var b strings.Builder
	writeSortedSet(&b, entries, '\x02')
	b.WriteString(canonParams(p.params))
	return b.String()
}

// canonParams renders symbolic parameter kinds in index order.
func canonParams(params map[int]Kind) string {
	idxs := make([]int, 0, len(params))
	for i := range params {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var b strings.Builder
	for _, i := range idxs {
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(params[i])))
		b.WriteByte('\x03')
	}
	return b.String()
}

// writeSortedSet writes the distinct entries in sorted order, each
// followed by sep. It sorts entries in place.
func writeSortedSet(b *strings.Builder, entries []string, sep byte) {
	sort.Strings(entries)
	for i, e := range entries {
		if i > 0 && e == entries[i-1] {
			continue
		}
		b.WriteString(e)
		b.WriteByte(sep)
	}
}

// canonPSummary renders a portable summary canonically: the return taint,
// then effects and obligations as sets (summaryEqual's semantics).
func canonPSummary(p pSummary) string {
	var b strings.Builder
	b.WriteString(canonPTaint(p.ret))
	b.WriteByte('\x04')
	effs := make([]string, 0, len(p.effects))
	for _, e := range p.effects {
		effs = append(effs, strconv.Itoa(int(e.ref.obj.kind))+"\x01"+e.ref.obj.name+"\x01"+e.ref.obj.fn+"\x01"+
			e.ref.obj.pos.String()+"\x01"+strconv.FormatInt(e.ref.off, 10)+"\x01"+canonParams(e.params))
	}
	writeSortedSet(&b, effs, '\x05')
	b.WriteByte('\x04')
	obs := make([]string, 0, len(p.asserts))
	for _, o := range p.asserts {
		obs = append(obs, o.pos.String()+"\x01"+o.fnName+"\x01"+o.vbl+"\x01"+o.rule+"\x01"+canonParams(o.params))
	}
	writeSortedSet(&b, obs, '\x05')
	return b.String()
}

// verifyCutoffs re-checks every cut-off unit's callees after convergence
// and adds to affected the functions of those whose callees no longer
// hold their previous summaries: a callee solved again in a later round
// may have moved after the wave compared it.
func (a *analysis) verifyCutoffs(affected map[string]bool) {
	for _, u := range a.unitList {
		if u.cutOff && !calleesKept(u) {
			affected[u.fn.Name] = true
		}
	}
}

// verifyIncremental diffs the previous run's portable memory cells
// against this run's and returns the replayed functions whose recorded
// reads observe a changed cell (respecting the unknown-offset read
// semantics of memStore.read). An empty result proves every replayed
// unit saw the same global memory it recorded, closing replay's memory
// gap; a non-empty result triggers a cone-expansion restart.
func (a *analysis) verifyIncremental(prev *IncrState) map[string]bool {
	cur := make(map[pRef]pTaint, len(prev.cells))
	a.mem.mu.RLock()
	for ref, t := range a.mem.cells {
		pr := pRefOf(ref)
		pt := a.exportTaint(t)
		if old, ok := cur[pr]; ok {
			pt = mergePTaint(old, pt)
		}
		cur[pr] = pt
	}
	a.mem.mu.RUnlock()

	changedRefs := make(map[pRef]bool)
	changedObjs := make(map[objDesc]bool)
	mark := func(pr pRef) {
		changedRefs[pr] = true
		changedObjs[pr.obj] = true
	}
	for pr, pv := range prev.cells {
		cv, ok := cur[pr]
		if !ok || canonPTaint(pv) != canonPTaint(cv) {
			mark(pr)
		}
	}
	for pr := range cur {
		if _, ok := prev.cells[pr]; !ok {
			mark(pr)
		}
	}
	affected := make(map[string]bool)
	if len(changedRefs) == 0 {
		return affected
	}
	for _, u := range a.unitList {
		if !u.replayed {
			continue
		}
		for _, r := range u.rec.reads {
			if r.off == pointsto.UnknownOffset {
				if changedObjs[r.obj] {
					affected[u.fn.Name] = true
					break
				}
			} else if changedRefs[r] || changedRefs[pRef{obj: r.obj, off: pointsto.UnknownOffset}] {
				affected[u.fn.Name] = true
				break
			}
		}
	}
	return affected
}

// ---------------------------------------------------------------------------
// Driver

// maxIncrRestarts caps verification restarts before falling back to a
// full (still tracked) solve.
const maxIncrRestarts = 3

// runIncremental is the incremental driver: fingerprint, invalidate the
// dirty cone, replay everything else, cut off cone units whose callees
// kept their summaries, verify, restart on drift.
func runIncremental(cfg Config) *Result {
	fps := computeFingerprints(&cfg)
	regionFP := regionFingerprint(cfg.SF)
	prev := cfg.Incr.Prev

	definedCount := 0
	for _, fn := range cfg.Module.Funcs {
		if !fn.IsDecl {
			definedCount++
		}
	}

	stats := &IncrStats{}
	full := prev == nil || prev.regionFP != regionFP
	var dirty map[string]bool
	if !full {
		dirty = make(map[string]bool)
		for name, fp := range fps {
			if pfp, ok := prev.fnFP[name]; !ok || pfp != fp {
				dirty[name] = true
			}
		}
	}

	for {
		a := newAnalysis(cfg)
		a.track = true
		var cone map[string]bool
		if !full {
			cone = callerClosure(cfg.CG, cfg.Module, dirty)
			a.replayBinder = a.newBinder()
			a.prev = prev
			a.replay, a.cutoff = a.buildReplayPlan(prev, cone, dirty)
		}
		a.runScheduled(workerCount(cfg.Workers))
		res := a.finish()
		if a.ctxDone() || len(a.internal) > 0 {
			// A cancelled or faulted run never captures state: a partial
			// snapshot would poison every later update. The caller keeps
			// its last good state instead.
			return res
		}
		if !full {
			affected := a.verifyIncremental(prev)
			a.verifyCutoffs(affected)
			if len(affected) > 0 {
				stats.Restarts++
				for f := range affected {
					dirty[f] = true
				}
				if stats.Restarts >= maxIncrRestarts {
					full = true
				}
				continue
			}
		}
		if full {
			stats.FuncsInvalidated = definedCount
		} else {
			stats.FuncsInvalidated = len(cone)
			if reused := definedCount - len(cone); reused > 0 {
				stats.FuncsReused = reused
			}
		}
		for _, u := range a.unitList {
			if u.cutOff {
				stats.UnitsCutOff++
			}
			if u.replayed {
				stats.UnitsReplayed++
			} else {
				stats.UnitsSolved++
			}
		}
		res.Incr = stats
		res.NextIncr = a.captureState(fps, regionFP)
		return res
	}
}

// Checksum derives the state's structural checksum: FNV-1a over each unit
// record's key and shape, each function fingerprint and each memory
// cell, combined by addition so no key needs sorting. It is an integrity
// check against truncation and stray mutation of shared state, not a
// cryptographic one; the state tier of internal/cache verifies it on every
// load.
func (st *IncrState) Checksum() uint64 {
	var units, fns, cells uint64
	for key, rec := range st.units {
		h := newFNV()
		h.str(key)
		if rec != nil {
			h.str(rec.fn)
			for _, n := range []int{len(rec.sum.ret.srcs), len(rec.sum.ret.params), len(rec.sum.effects),
				len(rec.sum.asserts), len(rec.writes), len(rec.reads), len(rec.sources), len(rec.errors)} {
				h.int(int64(n))
			}
		}
		units += h.h
	}
	for name, fp := range st.fnFP {
		h := newFNV()
		h.str(name)
		h.int(int64(fp.body))
		h.int(int64(fp.env))
		fns += h.h
	}
	for ref, t := range st.cells {
		h := newFNV()
		h.str(ref.obj.name)
		h.int(ref.off)
		h.int(int64(len(t.srcs)))
		cells += h.h
	}
	h := newFNV()
	h.int(int64(st.regionFP))
	for _, n := range []int{len(st.units), len(st.fnFP), len(st.cells)} {
		h.int(int64(n))
	}
	h.int(int64(units))
	h.int(int64(fns))
	h.int(int64(cells))
	return h.h
}
