package dataflow

import (
	"fmt"
	"math/rand"
	"testing"

	"safeflow/internal/ctypes"
	"safeflow/internal/ir"
)

func intConst(v int64) *ir.ConstInt { return &ir.ConstInt{Val: v, Ty: ctypes.IntType} }

func add(x, y ir.Value) *ir.BinOp {
	return &ir.BinOp{Op: ir.Add, X: x, Y: y, Ty: ctypes.IntType}
}

// placePhi prepends a phi to b (the builder's Append would reject a
// block that is already terminated).
func placePhi(b *ir.Block, phi *ir.Phi) {
	phi.SetParentBlock(b)
	b.Instrs = append([]ir.Instr{phi}, b.Instrs...)
}

// orTransfer is the may-fact transfer the analyses use: a result holds
// when any operand (or phi edge) does.
func orTransfer(in ir.Instr, get func(ir.Value) bool) (bool, bool) {
	switch x := in.(type) {
	case *ir.BinOp:
		return get(x.X) || get(x.Y), true
	case *ir.Cmp:
		return get(x.X) || get(x.Y), true
	case *ir.Phi:
		out := false
		for _, e := range x.Edges {
			out = out || get(e.Val)
		}
		return out, true
	}
	return false, false
}

// sweepCounter wraps a transfer to count evaluations per instruction and
// sweeps: a sweep ends whenever the next evaluated index is not above
// the last one.
type sweepCounter struct {
	evals  map[int]int
	sweeps int
	last   int
}

func (c *sweepCounter) wrap(tr func(ir.Instr, func(ir.Value) bool) (bool, bool)) func(ir.Instr, func(ir.Value) bool) (bool, bool) {
	c.evals, c.sweeps, c.last = map[int]int{}, 0, -1
	return func(in ir.Instr, get func(ir.Value) bool) (bool, bool) {
		idx := ir.InstrIndex(in)
		if idx <= c.last || c.sweeps == 0 {
			c.sweeps++
		}
		c.last = idx
		c.evals[idx]++
		return tr(in, get)
	}
}

// On acyclic code every operand and control dependence precedes its user
// in block order, so one forward sweep reaches the fixpoint: each
// instruction is evaluated exactly once.
func TestSolverAcyclicEvaluatesOnce(t *testing.T) {
	fn := &ir.Function{Name: "diamond", Sig: &ctypes.Func{Result: ctypes.IntType}}
	p := &ir.Param{Name: "p", Ty: ctypes.IntType, Index: 0, Fn: fn}
	fn.Params = []*ir.Param{p}
	entry, a, b, merge := fn.NewBlock("entry"), fn.NewBlock("a"), fn.NewBlock("b"), fn.NewBlock("merge")

	cond := &ir.Cmp{Op: ir.NE, X: p, Y: intConst(0)}
	entry.Append(cond)
	ir.Terminate(entry, &ir.Br{Cond: cond, Then: a, Else: b})
	a1 := add(p, intConst(1))
	a.Append(a1)
	a2 := add(a1, a1)
	a.Append(a2)
	ir.Terminate(a, &ir.Br{Then: merge})
	b1 := add(intConst(2), intConst(3))
	b.Append(b1)
	ir.Terminate(b, &ir.Br{Then: merge})
	phi := &ir.Phi{Edges: []ir.PhiEdge{{Val: a2, Pred: a}, {Val: b1, Pred: b}}, Ty: ctypes.IntType}
	tail := add(phi, b1)
	merge.Append(tail)
	ir.Terminate(merge, &ir.Ret{X: tail})
	placePhi(merge, phi)

	info := NewInfo(fn)
	// The phi is control dependent on the branch condition, as in vfg.
	extra := make([][]int32, info.NumValues)
	extra[ir.ValueNum(cond)] = []int32{int32(ir.InstrIndex(phi))}

	var c sweepCounter
	s := &ValueSolver[bool]{Info: info, Lattice: BoolLattice{}, ExtraUses: extra}
	for _, seeds := range [][]Seed[bool]{nil, {{Val: p, Fact: true}}, {{Val: b1, Fact: true}}} {
		s.Transfer = c.wrap(orTransfer)
		facts := s.Solve(seeds)
		for i := range info.Instrs {
			if c.evals[i] != 1 {
				t.Errorf("seeds %v: instruction %d (%T) evaluated %d times, want 1", seeds, i, info.Instrs[i], c.evals[i])
			}
		}
		if c.sweeps != 1 {
			t.Errorf("seeds %v: %d sweeps, want 1", seeds, c.sweeps)
		}
		if len(seeds) > 0 && !facts.Get(tail) {
			t.Errorf("seeds %v: fact did not reach the merge", seeds)
		}
	}
}

// loopNest builds a loop nest of the given depth whose innermost body
// feeds a value back around every level: inc flows into the innermost
// header phi, each exit block carries the inner phi out to the next
// header phi, and the outermost phi returns. Blocks are laid out as the
// front end emits them: headers outer to inner, the body, then the exits
// inner to outer.
func loopNest(depth int) (fn *ir.Function, phis []*ir.Phi, inc *ir.BinOp) {
	fn = &ir.Function{Name: fmt.Sprintf("nest%d", depth), Sig: &ctypes.Func{Result: ctypes.IntType}}
	entry := fn.NewBlock("entry")
	headers := make([]*ir.Block, depth)
	for k := range headers {
		headers[k] = fn.NewBlock(fmt.Sprintf("h%d", k))
	}
	body := fn.NewBlock("body")
	exits := make([]*ir.Block, depth) // exits[k] leaves loop k
	for k := depth - 1; k >= 0; k-- {
		exits[k] = fn.NewBlock(fmt.Sprintf("exit%d", k))
	}
	ir.Terminate(entry, &ir.Br{Then: headers[0]})

	phis = make([]*ir.Phi, depth)
	for k := range phis {
		phis[k] = &ir.Phi{Ty: ctypes.IntType}
		placePhi(headers[k], phis[k])
		cond := &ir.Cmp{Op: ir.LT, X: phis[k], Y: intConst(10)}
		headers[k].Append(cond)
		inner := body
		if k+1 < depth {
			inner = headers[k+1]
		}
		ir.Terminate(headers[k], &ir.Br{Cond: cond, Then: inner, Else: exits[k]})
	}
	inc = add(phis[depth-1], intConst(1))
	body.Append(inc)
	ir.Terminate(body, &ir.Br{Then: headers[depth-1]})

	// Loop k's phi starts from the enclosing phi and takes back the value
	// its body produced: inc for the innermost, the inner loop's phi
	// carried out through exit k+1 otherwise.
	phis[0].Edges = []ir.PhiEdge{{Val: intConst(0), Pred: entry}}
	for k := 1; k < depth; k++ {
		phis[k].Edges = []ir.PhiEdge{{Val: phis[k-1], Pred: headers[k-1]}}
	}
	phis[depth-1].Edges = append(phis[depth-1].Edges, ir.PhiEdge{Val: inc, Pred: body})
	for k := depth - 1; k >= 1; k-- {
		out := add(phis[k], intConst(0))
		exits[k].Append(out)
		ir.Terminate(exits[k], &ir.Br{Then: headers[k-1]})
		phis[k-1].Edges = append(phis[k-1].Edges, ir.PhiEdge{Val: out, Pred: exits[k]})
	}
	ir.Terminate(exits[0], &ir.Ret{X: phis[0]})
	return fn, phis, inc
}

// A fact born in the innermost body of a loop nest must cross one back
// edge per level to reach the outermost phi; each crossing costs one
// sweep, so the solver needs at most depth+1 sweeps.
func TestSolverLoopNestSweeps(t *testing.T) {
	for depth := 1; depth <= 5; depth++ {
		fn, phis, inc := loopNest(depth)
		var c sweepCounter
		s := &ValueSolver[bool]{Info: NewInfo(fn), Lattice: BoolLattice{}, Transfer: c.wrap(orTransfer)}
		facts := s.Solve([]Seed[bool]{{Val: inc, Fact: true}})
		for k, phi := range phis {
			if !facts.Get(phi) {
				t.Errorf("depth %d: the fact did not reach the level-%d phi", depth, k)
			}
		}
		if c.sweeps > depth+1 {
			t.Errorf("depth %d: %d sweeps, want at most %d", depth, c.sweeps, depth+1)
		}
	}
}

// lifoSolve is the solver's previous propagation order, kept as the
// differential reference: push every instruction, then pop last in,
// first out (so each function is first visited backwards), pushing the
// users of every changed value. It returns the fact table indexed by
// value number.
func lifoSolve[T any](s *ValueSolver[T], seeds []Seed[T]) []T {
	fi := s.Info
	facts := make([]T, fi.NumValues)
	for i := range facts {
		facts[i] = s.Lattice.Bottom()
	}
	inWork := make([]bool, len(fi.Instrs))
	var work []int32
	push := func(idx int32) {
		if !inWork[idx] {
			inWork[idx] = true
			work = append(work, idx)
		}
	}
	get := func(v ir.Value) T {
		if n := ir.ValueNum(v); n >= 0 && n < len(facts) {
			return facts[n]
		}
		return s.Lattice.Bottom()
	}
	for _, sd := range seeds {
		n := ir.ValueNum(sd.Val)
		if n < 0 || n >= len(facts) {
			continue
		}
		facts[n] = s.Lattice.Join(facts[n], sd.Fact)
		for _, use := range fi.users(n) {
			push(use)
		}
		if in, ok := sd.Val.(ir.Instr); ok {
			if ii := ir.InstrIndex(in); ii >= 0 && ii < len(inWork) {
				push(int32(ii))
			}
		}
	}
	for i := range fi.Instrs {
		push(int32(i))
	}
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[idx] = false
		in := fi.Instrs[idx]
		newFact, produces := s.Transfer(in, get)
		if !produces {
			continue
		}
		v, isVal := in.(ir.Value)
		if !isVal {
			continue
		}
		n := ir.ValueNum(v)
		if n < 0 || n >= len(facts) {
			continue
		}
		merged := s.Lattice.Join(facts[n], newFact)
		if s.Lattice.Equal(facts[n], merged) {
			continue
		}
		facts[n] = merged
		for _, use := range fi.users(n) {
			push(use)
		}
		if n < len(s.ExtraUses) {
			for _, use := range s.ExtraUses[n] {
				push(use)
			}
		}
	}
	return facts
}

// bitsLattice is the powerset of 64 elements under union.
type bitsLattice struct{}

func (bitsLattice) Join(a, b uint64) uint64 { return a | b }
func (bitsLattice) Equal(a, b uint64) bool  { return a == b }
func (bitsLattice) Bottom() uint64          { return 0 }

// maxLattice is the chain 0 ⊑ 1 ⊑ … ⊑ top under max.
type maxLattice struct{ top int }

func (maxLattice) Join(a, b int) int   { return max(a, b) }
func (maxLattice) Equal(a, b int) bool { return a == b }
func (maxLattice) Bottom() int         { return 0 }

// randFunc is a randomly wired function: binary operations and phis whose
// operands are parameters, constants or any instruction — earlier or
// later, so the def-use graph has cycles and backward edges of every
// length — plus random non-operand dependencies declared as extra uses.
type randFunc struct {
	fn    *ir.Function
	info  *FnInfo
	extra [][]int32
	dep   map[ir.Instr]ir.Value // the non-operand value each instruction also reads
	gen   map[ir.Instr]int      // per-instruction constant the transfer adds in
}

func newRandFunc(r *rand.Rand) *randFunc {
	fn := &ir.Function{Name: "rand", Sig: &ctypes.Func{Result: ctypes.IntType}}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		fn.Params = append(fn.Params, &ir.Param{Name: fmt.Sprintf("p%d", i), Ty: ctypes.IntType, Index: i, Fn: fn})
	}
	blocks := make([]*ir.Block, 1+r.Intn(5))
	for i := range blocks {
		blocks[i] = fn.NewBlock(fmt.Sprintf("b%d", i))
	}
	var vals []ir.Value // every instruction value, operands assigned below
	var bins []*ir.BinOp
	var phis []*ir.Phi
	for _, b := range blocks {
		for n := r.Intn(3); n > 0; n-- {
			phi := &ir.Phi{Ty: ctypes.IntType}
			phi.SetParentBlock(b)
			b.Instrs = append(b.Instrs, phi)
			phis = append(phis, phi)
			vals = append(vals, phi)
		}
		for n := 1 + r.Intn(6); n > 0; n-- {
			op := &ir.BinOp{Op: ir.Add, Ty: ctypes.IntType}
			b.Append(op)
			bins = append(bins, op)
			vals = append(vals, op)
		}
	}
	pick := func() ir.Value {
		switch k := r.Intn(10); {
		case k == 0:
			return intConst(int64(r.Intn(4)))
		case k <= 2:
			return fn.Params[r.Intn(len(fn.Params))]
		default:
			return vals[r.Intn(len(vals))]
		}
	}
	for _, op := range bins {
		op.X, op.Y = pick(), pick()
	}
	for _, phi := range phis {
		for n := 1 + r.Intn(3); n > 0; n-- {
			phi.Edges = append(phi.Edges, ir.PhiEdge{Val: pick(), Pred: blocks[r.Intn(len(blocks))]})
		}
	}
	for i, b := range blocks {
		if i+1 < len(blocks) {
			ir.Terminate(b, &ir.Br{Then: blocks[i+1]})
		} else {
			ir.Terminate(b, &ir.Ret{X: vals[len(vals)-1]})
		}
	}

	rf := &randFunc{fn: fn, info: NewInfo(fn), dep: map[ir.Instr]ir.Value{}, gen: map[ir.Instr]int{}}
	rf.extra = make([][]int32, rf.info.NumValues)
	for _, in := range rf.info.Instrs {
		if _, ok := in.(ir.Value); !ok {
			continue
		}
		rf.gen[in] = r.Intn(64)
		if r.Intn(4) == 0 {
			d := pick()
			rf.dep[in] = d
			if n := ir.ValueNum(d); n >= 0 {
				rf.extra[n] = append(rf.extra[n], int32(ir.InstrIndex(in)))
			}
		}
	}
	return rf
}

// transfer builds a monotone transfer over any lattice from a join and a
// per-instruction monotone step: the step is applied to the join of the
// operand (or phi edge) facts and the instruction's extra dependency.
func transfer[T any](rf *randFunc, join func(a, b T) T, step func(in ir.Instr, x T) T) func(ir.Instr, func(ir.Value) T) (T, bool) {
	return func(in ir.Instr, get func(ir.Value) T) (T, bool) {
		var x T
		switch v := in.(type) {
		case *ir.BinOp:
			x = join(get(v.X), get(v.Y))
		case *ir.Phi:
			for _, e := range v.Edges {
				x = join(x, get(e.Val))
			}
		default:
			return x, false
		}
		if d, ok := rf.dep[in]; ok {
			x = join(x, get(d))
		}
		return step(in, x), true
	}
}

// checkDifferential solves one function both ways and compares every
// value's fact.
func checkDifferential[T any](t *testing.T, name string, s *ValueSolver[T], seeds []Seed[T]) {
	t.Helper()
	want := lifoSolve(s, seeds)
	got := s.Solve(seeds)
	for n := range want {
		if !s.Lattice.Equal(got.facts[n], want[n]) {
			t.Fatalf("%s: value %d: forward solver %v, LIFO reference %v", name, n, got.facts[n], want[n])
		}
	}
}

// The least fixpoint of a monotone system does not depend on the order
// the solver visits instructions in: over random functions, seeds, extra
// uses and three lattices, the forward sweep computes exactly the facts
// of the LIFO worklist it replaced.
func TestSolverMatchesLIFOReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		rf := newRandFunc(r)
		var seedVals []ir.Value
		for _, p := range rf.fn.Params {
			seedVals = append(seedVals, p)
		}
		for _, in := range rf.info.Instrs {
			if v, ok := in.(ir.Value); ok {
				seedVals = append(seedVals, v)
			}
		}
		nSeeds := r.Intn(4)
		seedAt := make([]ir.Value, nSeeds)
		for i := range seedAt {
			seedAt[i] = seedVals[r.Intn(len(seedVals))]
		}
		name := fmt.Sprintf("iteration %d", iter)

		var bs []Seed[bool]
		for _, v := range seedAt {
			bs = append(bs, Seed[bool]{Val: v, Fact: true})
		}
		checkDifferential(t, name+" (bool)", &ValueSolver[bool]{
			Info: rf.info, Lattice: BoolLattice{}, ExtraUses: rf.extra,
			Transfer: transfer(rf, BoolLattice{}.Join, func(in ir.Instr, x bool) bool { return x || rf.gen[in] == 0 }),
		}, bs)

		// gen/kill: (x &^ kill) | gen is monotone in x for fixed masks.
		var ss []Seed[uint64]
		for _, v := range seedAt {
			ss = append(ss, Seed[uint64]{Val: v, Fact: r.Uint64()})
		}
		checkDifferential(t, name+" (bits)", &ValueSolver[uint64]{
			Info: rf.info, Lattice: bitsLattice{}, ExtraUses: rf.extra,
			Transfer: transfer(rf, bitsLattice{}.Join, func(in ir.Instr, x uint64) uint64 {
				g := uint64(rf.gen[in])
				return (x &^ (g * 0x9E3779B97F4A7C15)) | 1<<g
			}),
		}, ss)

		// A counting chain: climbing by one per step around a cycle makes
		// the solver iterate to the top.
		ml := maxLattice{top: 12}
		var ms []Seed[int]
		for _, v := range seedAt {
			ms = append(ms, Seed[int]{Val: v, Fact: r.Intn(ml.top + 1)})
		}
		checkDifferential(t, name+" (max)", &ValueSolver[int]{
			Info: rf.info, Lattice: ml, ExtraUses: rf.extra,
			Transfer: transfer(rf, ml.Join, func(in ir.Instr, x int) int { return min(x+rf.gen[in]%2, ml.top) }),
		}, ms)
	}
}
