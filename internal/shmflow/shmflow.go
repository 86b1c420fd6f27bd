// Package shmflow implements phase 1 of the SafeFlow analysis (paper
// §3.3): discovery of shared-memory regions from annotated initializing
// functions, and interprocedural identification of every pointer value
// that may reference shared memory, with byte-offset intervals tracked for
// the core(ptr, offset, size) matching done in phase 3.
//
// Regions are named by the global pointer variables declared in shmvar
// post-conditions of shminit functions (Figure 3 of the paper). Pointer
// facts propagate sparsely inside each function (SSA def-use edges, join
// at phis = "shm if shm on some path") and interprocedurally along the
// call graph — bottom-up through return values and top-down through
// arguments — iterated over the SCC DAG until stable.
package shmflow

import (
	"fmt"
	"sort"

	"safeflow/internal/annot"
	"safeflow/internal/callgraph"
	"safeflow/internal/ctypes"
	"safeflow/internal/dataflow"
	"safeflow/internal/ir"
)

// Region is one shared-memory variable declared by shmvar(ptr, size).
type Region struct {
	Name    string // the global pointer variable naming the region
	Size    int64  // bytes
	NonCore bool   // assume(noncore(ptr)) was given
	Global  *ir.Global
	Init    *ir.Function // the shminit function that declared it

	base Fact // the fact of a load of Global: this region at offset 0
}

// String implements fmt.Stringer.
func (r *Region) String() string {
	kind := "core"
	if r.NonCore {
		kind = "noncore"
	}
	return fmt.Sprintf("%s[%d bytes, %s]", r.Name, r.Size, kind)
}

// Interval is a byte-offset range relative to a region base. Unknown means
// the offset could not be bounded statically.
type Interval struct {
	Lo, Hi  int64
	Unknown bool
}

// Exact returns the interval [o, o].
func Exact(o int64) Interval { return Interval{Lo: o, Hi: o} }

// JoinInterval merges two intervals.
func JoinInterval(a, b Interval) Interval {
	if a.Unknown || b.Unknown {
		return Interval{Unknown: true}
	}
	lo, hi := a.Lo, a.Hi
	if b.Lo < lo {
		lo = b.Lo
	}
	if b.Hi > hi {
		hi = b.Hi
	}
	return Interval{Lo: lo, Hi: hi}
}

// Shift adds a byte delta (UnknownDelta yields Unknown).
func (iv Interval) Shift(delta int64, unknown bool) Interval {
	if iv.Unknown || unknown {
		return Interval{Unknown: true}
	}
	return Interval{Lo: iv.Lo + delta, Hi: iv.Hi + delta}
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	if iv.Unknown {
		return "[?]"
	}
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("[%d]", iv.Lo)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

// Fact is the shm-pointer fact of one SSA value: the regions it may point
// into and the offset interval per region. nil/empty = not a shm pointer.
// A Fact is an immutable value once made: joins and shifts build new
// maps, so values, parameters and return values that carry the same
// pointer share one map (a region's base fact is interned on the Region).
type Fact map[*Region]Interval

// Empty reports whether the value is not a shared-memory pointer.
func (f Fact) Empty() bool { return len(f) == 0 }

// clone copies the fact.
func (f Fact) clone() Fact {
	if len(f) == 0 {
		return nil
	}
	out := make(Fact, len(f))
	for r, iv := range f {
		out[r] = iv
	}
	return out
}

// join merges two facts.
func joinFacts(a, b Fact) Fact {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	out := a.clone()
	for r, iv := range b {
		if prev, ok := out[r]; ok {
			out[r] = JoinInterval(prev, iv)
		} else {
			out[r] = iv
		}
	}
	return out
}

func equalFacts(a, b Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for r, iv := range a {
		if b[r] != iv {
			return false
		}
	}
	return true
}

// lattice adapts Fact to the dataflow solver.
type lattice struct{}

func (lattice) Join(a, b Fact) Fact  { return joinFacts(a, b) }
func (lattice) Equal(a, b Fact) bool { return equalFacts(a, b) }
func (lattice) Bottom() Fact         { return nil }

// Result is the phase-1 output.
type Result struct {
	Regions      []*Region
	RegionByName map[string]*Region
	// InitFuncs are the shminit-annotated functions (excluded from phases
	// 2 and 3 per the paper).
	InitFuncs map[*ir.Function]bool
	// Facts holds, per defined non-init function, the dense fact table of
	// its last sparse solve (indexed by the function's value numbering).
	Facts map[*ir.Function]dataflow.Facts[Fact]
	// RetFacts holds the shm fact of each function's return value.
	RetFacts map[*ir.Function]Fact
	// Errors are annotation/malformation problems found during phase 1.
	Errors []error
}

// FactOf returns the fact of v inside fn.
func (r *Result) FactOf(fn *ir.Function, v ir.Value) Fact {
	return r.Facts[fn].Get(v)
}

// IsShmPointer reports whether v may point into shared memory in fn.
func (r *Result) IsShmPointer(fn *ir.Function, v ir.Value) bool {
	return !r.FactOf(fn, v).Empty()
}

// Analyze runs phase 1 over the module, building each function's def-use
// index for this run alone.
func Analyze(m *ir.Module, cg *callgraph.Graph) *Result {
	return AnalyzeIndexed(m, cg, nil)
}

// AnalyzeIndexed runs phase 1 over the module, taking each function's
// def-use index from idx (nil builds them for this run alone), so the
// phases after it and later runs over the same functions reuse them.
func AnalyzeIndexed(m *ir.Module, cg *callgraph.Graph, idx *dataflow.Index) *Result {
	res := &Result{
		RegionByName: make(map[string]*Region),
		InitFuncs:    make(map[*ir.Function]bool),
		Facts:        make(map[*ir.Function]dataflow.Facts[Fact], len(m.Funcs)),
		RetFacts:     make(map[*ir.Function]Fact),
	}
	res.discoverRegions(m)
	if len(res.Regions) == 0 {
		return res
	}
	res.propagate(m, cg, idx)
	return res
}

// facts retrieves the function-level annotation bundle.
func facts(f *ir.Function) *annot.FuncFacts {
	if ff, ok := f.Facts.(*annot.FuncFacts); ok {
		return ff
	}
	return nil
}

// discoverRegions scans shminit functions for shmvar/noncore
// post-conditions and validates them.
func (r *Result) discoverRegions(m *ir.Module) {
	for _, f := range m.Funcs {
		ff := facts(f)
		if ff == nil || !ff.IsShmInit {
			continue
		}
		r.InitFuncs[f] = true
		for _, sv := range ff.ShmVars {
			g := m.GlobalByName(sv.Ptr)
			if g == nil {
				r.Errors = append(r.Errors, fmt.Errorf(
					"%s: shmvar(%s, %d): no global pointer variable %q",
					f.Name, sv.Ptr, sv.Size, sv.Ptr))
				continue
			}
			if !ctypes.IsPointer(g.Elem) {
				r.Errors = append(r.Errors, fmt.Errorf(
					"%s: shmvar(%s, %d): global %q is %s, not a pointer",
					f.Name, sv.Ptr, sv.Size, sv.Ptr, g.Elem))
				continue
			}
			if prev, dup := r.RegionByName[sv.Ptr]; dup {
				r.Errors = append(r.Errors, fmt.Errorf(
					"%s: shmvar(%s, %d): region already declared with size %d",
					f.Name, sv.Ptr, sv.Size, prev.Size))
				continue
			}
			reg := &Region{Name: sv.Ptr, Size: sv.Size, Global: g, Init: f}
			reg.base = Fact{reg: Exact(0)}
			r.Regions = append(r.Regions, reg)
			r.RegionByName[sv.Ptr] = reg
		}
		for _, nc := range ff.NonCore {
			if reg, ok := r.RegionByName[nc.Name]; ok {
				reg.NonCore = true
			}
			// noncore on non-region names (socket descriptors, local
			// pointers in monitoring functions) is handled by phase 3.
		}
	}
	sort.Slice(r.Regions, func(i, j int) bool { return r.Regions[i].Name < r.Regions[j].Name })
}

// propagate runs the sparse intraprocedural solve per function plus the
// bottom-up/top-down interprocedural plumbing to a fixpoint.
func (r *Result) propagate(m *ir.Module, cg *callgraph.Graph, idx *dataflow.Index) {
	// Cross-function boundary facts.
	paramFacts := make(map[*ir.Param]Fact)
	// One solver per function, reused across the interprocedural rounds so
	// the fact buffers are recycled; the def-use index comes from idx.
	solvers := make(map[*ir.Function]*fnSolver)

	dirty := make(map[*ir.Function]bool)
	var queue []*ir.Function
	push := func(f *ir.Function) {
		if f == nil || f.IsDecl || r.InitFuncs[f] || dirty[f] {
			return
		}
		dirty[f] = true
		queue = append(queue, f)
	}

	// Bottom-up seed order: callees first so return facts are available.
	for _, scc := range cg.BottomUp() {
		for _, f := range scc.Funcs {
			push(f)
		}
	}

	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		dirty[f] = false

		retChanged, callArgs := r.solveFunction(f, paramFacts, solvers, idx)
		if retChanged {
			for _, caller := range cg.Callers[f] {
				push(caller)
			}
		}
		// Top-down: push argument facts into callee parameters.
		for callee, args := range callArgs {
			changed := false
			for i, fact := range args {
				if fact.Empty() || i >= len(callee.Params) {
					continue
				}
				p := callee.Params[i]
				merged := joinFacts(paramFacts[p], fact)
				if !equalFacts(merged, paramFacts[p]) {
					paramFacts[p] = merged
					changed = true
				}
			}
			if changed {
				push(callee)
			}
		}
	}
}

// fnSolver is the per-function solve state reused across rounds.
type fnSolver struct {
	solver *dataflow.ValueSolver[Fact]
	seeds  []dataflow.Seed[Fact]
}

// solveFunction runs the sparse solve for one function given current
// parameter facts; it records the final fact table, returns whether the
// function's return fact changed, and collects per-callee argument facts.
func (r *Result) solveFunction(f *ir.Function, paramFacts map[*ir.Param]Fact, solvers map[*ir.Function]*fnSolver, idx *dataflow.Index) (retChanged bool, callArgs map[*ir.Function][]Fact) {
	st := solvers[f]
	if st == nil {
		st = &fnSolver{solver: &dataflow.ValueSolver[Fact]{
			Info:    idx.Of(f),
			Lattice: lattice{},
			Transfer: func(in ir.Instr, get func(ir.Value) Fact) (Fact, bool) {
				return r.transfer(f, in, get)
			},
		}}
		solvers[f] = st
	}
	st.seeds = st.seeds[:0]
	for _, p := range f.Params {
		if fact := paramFacts[p]; !fact.Empty() {
			st.seeds = append(st.seeds, dataflow.Seed[Fact]{Val: p, Fact: fact})
		}
	}
	// The solver joins seeds into its fact table, so FactOf callers see the
	// parameter facts too.
	final := st.solver.Solve(st.seeds)
	r.Facts[f] = final

	// Return fact.
	var ret Fact
	for _, b := range f.Blocks {
		if rt, ok := b.Term().(*ir.Ret); ok && rt.X != nil {
			ret = joinFacts(ret, final.Get(rt.X))
		}
	}
	if !equalFacts(ret, r.RetFacts[f]) {
		r.RetFacts[f] = ret
		retChanged = true
	}

	// Argument facts per callee, for the callees passed a shm pointer.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			call, ok := in.(*ir.Call)
			if !ok || call.Callee.IsDecl || r.InitFuncs[call.Callee] {
				continue
			}
			for i, a := range call.Args {
				fact := final.Get(a)
				if fact.Empty() {
					continue
				}
				if callArgs == nil {
					callArgs = make(map[*ir.Function][]Fact)
				}
				args := callArgs[call.Callee]
				if args == nil {
					args = make([]Fact, len(call.Args))
					callArgs[call.Callee] = args
				}
				if i < len(args) {
					args[i] = joinFacts(args[i], fact)
				}
			}
		}
	}
	return retChanged, callArgs
}

// transfer computes the shm fact of one instruction's result.
func (r *Result) transfer(f *ir.Function, in ir.Instr, get func(ir.Value) Fact) (Fact, bool) {
	switch x := in.(type) {
	case *ir.Load:
		// Loading a region's global pointer variable yields a base pointer.
		if g, ok := x.Addr.(*ir.Global); ok {
			if reg, isRegion := r.RegionByName[g.Name]; isRegion {
				return reg.base, true
			}
		}
		// Loading through a shm pointer yields shm *data*; a pointer-typed
		// load from shm is not itself a tracked shm pointer (P2 forbids
		// storing them there) — phase 3 taints it instead.
		return nil, true
	case *ir.GEP:
		base := get(x.Base)
		if base.Empty() {
			return nil, true
		}
		delta, unknown := gepByteDelta(x)
		if delta == 0 && !unknown {
			return base, true
		}
		out := make(Fact, len(base))
		for reg, iv := range base {
			out[reg] = iv.Shift(delta, unknown)
		}
		return out, true
	case *ir.Cast:
		switch x.Kind {
		case ir.Bitcast:
			return get(x.X), true
		case ir.IntToPtr, ir.PtrToInt:
			// P3 forbids these on shm pointers; restrict reports them. The
			// fact is propagated anyway so the violation site is precise.
			return get(x.X), true
		}
		return nil, true
	case *ir.Phi:
		var out Fact
		for _, e := range x.Edges {
			out = joinFacts(out, get(e.Val))
		}
		return out, true
	case *ir.Call:
		if x.Callee.IsDecl || r.InitFuncs[x.Callee] {
			return nil, true
		}
		return r.RetFacts[x.Callee], true
	default:
		return nil, false
	}
}

// gepByteDelta computes the static byte delta of a GEP (false when every
// index is constant).
func gepByteDelta(g *ir.GEP) (delta int64, unknown bool) {
	cur := g.Base.Type()
	for _, ix := range g.Indices {
		p, ok := cur.(*ctypes.Pointer)
		if !ok {
			return 0, true
		}
		if ix.Index == nil {
			st, ok := p.Elem.(*ctypes.Struct)
			if !ok || ix.Field >= len(st.Fields) {
				return 0, true
			}
			delta += st.Fields[ix.Field].Offset
			cur = &ctypes.Pointer{Elem: st.Fields[ix.Field].Type}
			continue
		}
		c, isConst := ix.Index.(*ir.ConstInt)
		if !isConst {
			return 0, true
		}
		if arr, isArr := p.Elem.(*ctypes.Array); isArr {
			delta += c.Val * arr.Elem.Size()
			cur = &ctypes.Pointer{Elem: arr.Elem}
			continue
		}
		delta += c.Val * p.Elem.Size()
	}
	return delta, false
}
