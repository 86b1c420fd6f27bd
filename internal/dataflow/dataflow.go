// Package dataflow provides the sparse propagation machinery shared by
// SafeFlow's analyses: a def-use index over IR functions and a generic
// monotone solver for facts attached to SSA values. Because the IR is in
// SSA form, sparse propagation along def-use edges gives the
// flow-sensitive results the paper's phase 1 (shared-memory pointer
// discovery) and phase 3 (unsafe-value flow) require, with merges at phis
// implementing the paper's "shm/unsafe if so on some path" join.
//
// The solver sweeps dirty instructions in ascending instruction index
// (forward block order) until none is dirty, so a fact set early in a
// function reaches its users in the same sweep and only loop-carried or
// control-dependence edges that point backwards cost another sweep. Facts
// only grow by joins and every transfer is monotone, so the result is the
// least fixpoint whatever the visit order; the order only decides how
// many transfers it takes to get there.
//
// Storage is dense: facts, dirty flags and def-use chains are slices
// indexed by the per-function value/instruction numbering of
// ir.NumberValues, so the solver allocates nothing on its hot path and a
// ValueSolver's buffers are reused across repeated Solve calls.
package dataflow

import (
	"sync"

	"safeflow/internal/ir"
)

// FnInfo is the per-function dense solver index: the instruction list in
// block order and the def-use chains mapping each numbered value to the
// indices of the instructions that use it as an operand, in compressed
// sparse row form. It depends only on the function's own instructions and
// numbering, so it is built once per function and shared by every solve
// over it, across phases and, in a session, across updates (see Index).
type FnInfo struct {
	Fn        *ir.Function
	Instrs    []ir.Instr // index = ir.InstrIndex
	NumValues int
	// The users of value n are uses[off[n]:off[n+1]], in ascending
	// instruction order, once per operand slot.
	off  []int32
	uses []int32
}

// NewInfo builds the dense index for one function, numbering the function
// first if it has never been numbered (hand-built test functions; the
// production pipeline numbers at lowering time). It walks the operands
// twice through one reused buffer — a count, then a fill — and allocates
// only that buffer and the index itself.
func NewInfo(f *ir.Function) *FnInfo {
	if f.NumInstrs() == 0 {
		f.NumberValues()
	}
	nv := f.NumValues()
	fi := &FnInfo{
		Fn:        f,
		Instrs:    make([]ir.Instr, 0, f.NumInstrs()),
		NumValues: nv,
		off:       make([]int32, nv+1),
	}
	ops := make([]ir.Value, 0, 8)
	// off[n] counts value n's uses, then becomes the end of its row.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fi.Instrs = append(fi.Instrs, in)
			ops = in.AppendOperands(ops[:0])
			for _, op := range ops {
				if n := ir.ValueNum(op); n >= 0 && n < nv {
					fi.off[n]++
				}
			}
		}
	}
	for n := 1; n <= nv; n++ {
		fi.off[n] += fi.off[n-1]
	}
	// Filling back to front leaves each row ascending and off[n] at the
	// row's start; off[nv] stays the total.
	fi.uses = make([]int32, fi.off[nv])
	for idx := len(fi.Instrs) - 1; idx >= 0; idx-- {
		ops = fi.Instrs[idx].AppendOperands(ops[:0])
		for _, op := range ops {
			if n := ir.ValueNum(op); n >= 0 && n < nv {
				fi.off[n]--
				fi.uses[fi.off[n]] = int32(idx)
			}
		}
	}
	return fi
}

// users returns the indices of the instructions using value n.
func (fi *FnInfo) users(n int) []int32 { return fi.uses[fi.off[n]:fi.off[n+1]] }

// UsersOf returns the instructions using v as an operand (test/debug
// helper; the solver walks the index directly).
func (fi *FnInfo) UsersOf(v ir.Value) []ir.Instr {
	n := ir.ValueNum(v)
	if n < 0 || n >= fi.NumValues {
		return nil
	}
	out := make([]ir.Instr, 0, fi.off[n+1]-fi.off[n])
	for _, idx := range fi.users(n) {
		out = append(out, fi.Instrs[idx])
	}
	return out
}

// Index is a table of per-function def-use indexes, each built on first
// request. An analysis owns one, so its phases share every index; a
// session keeps its table across updates, since a function object the
// link reuses keeps its instructions and numbering (relinking rewires
// only operands that name functions and globals, which are unnumbered),
// and prunes it to the current module so no entry pins a dead one. The
// nil *Index builds a fresh index on every request. Safe for concurrent
// use.
type Index struct {
	mu    sync.Mutex
	infos map[*ir.Function]*FnInfo
}

// NewIndex returns an empty table.
func NewIndex() *Index {
	return &Index{infos: make(map[*ir.Function]*FnInfo)}
}

// Of returns f's index, building and keeping it on first request.
func (x *Index) Of(f *ir.Function) *FnInfo {
	if x == nil {
		return NewInfo(f)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	fi := x.infos[f]
	if fi == nil {
		fi = NewInfo(f)
		x.infos[f] = fi
	}
	return fi
}

// Lookup returns f's index if the table holds one, without building it.
func (x *Index) Lookup(f *ir.Function) (*FnInfo, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	fi, ok := x.infos[f]
	return fi, ok
}

// Len returns the number of indexes held.
func (x *Index) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.infos)
}

// Prune drops the index of every function that is not m's function of
// its name; a nil m empties the table.
func (x *Index) Prune(m *ir.Module) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for f := range x.infos {
		if m == nil || m.FuncByName(f.Name) != f {
			delete(x.infos, f)
		}
	}
}

// Lattice describes the fact domain for the value solver. Join(Bottom, x)
// must equal x, and the zero value of T must be Bottom (the solver's
// dense tables rely on both).
type Lattice[T any] interface {
	// Join combines two facts (least upper bound).
	Join(a, b T) T
	// Equal reports whether two facts are the same lattice element.
	Equal(a, b T) bool
	// Bottom is the initial fact.
	Bottom() T
}

// Seed is one initial fact for a numbered value.
type Seed[T any] struct {
	Val  ir.Value
	Fact T
}

// Facts is the dense fact table produced by one solve, viewed through the
// function's value numbering. The zero Facts is valid and empty.
type Facts[T any] struct {
	info  *FnInfo
	facts []T
}

// Get returns the fact of v (the zero value of T — Bottom — for values
// outside the numbering or never reached).
func (f Facts[T]) Get(v ir.Value) T {
	if n := ir.ValueNum(v); n >= 0 && n < len(f.facts) {
		return f.facts[n]
	}
	var zero T
	return zero
}

// ValueSolver propagates facts over a function's SSA values to a fixpoint.
// Its internal buffers are reused across Solve calls, so a solver may be
// used for repeated solves of the same function; each Solve invalidates
// the Facts view returned by the previous one.
type ValueSolver[T any] struct {
	Info    *FnInfo
	Lattice Lattice[T]
	// Transfer computes the fact of an instruction's result from the facts
	// of its operands; get resolves the current fact of any value. The
	// second result is false when the instruction produces no fact (e.g.
	// stores, branches).
	Transfer func(in ir.Instr, get func(ir.Value) T) (T, bool)
	// ExtraUses declares non-operand dependencies, indexed by value number:
	// when the fact of value n changes, the instructions at the indices in
	// ExtraUses[n] are re-evaluated too. Used for control-dependence edges
	// (a phi depends on the conditions of the branches that select its
	// incoming edge, which are not operands).
	ExtraUses [][]int32

	facts []T
	dirty []bool           // instruction index → awaiting (re-)evaluation
	getf  func(ir.Value) T // created once; escapes into Transfer calls
}

// Solve runs the propagation to a fixpoint, starting from the given seed
// facts, and returns the final fact table.
//
// Every instruction starts dirty. Each sweep evaluates the dirty
// instructions in ascending index order — block order, which the front
// end emits forward — so a fact reaches its users later in the same
// sweep; only users at or before the changed instruction (loop-carried
// phis, control-dependence edges back to a header) need another sweep,
// which starts at the lowest of them.
func (s *ValueSolver[T]) Solve(seeds []Seed[T]) Facts[T] {
	fi := s.Info
	bottom := s.Lattice.Bottom()

	if cap(s.facts) >= fi.NumValues {
		s.facts = s.facts[:fi.NumValues]
	} else {
		s.facts = make([]T, fi.NumValues)
	}
	for i := range s.facts {
		s.facts[i] = bottom
	}
	n := int32(len(fi.Instrs))
	if cap(s.dirty) >= int(n) {
		s.dirty = s.dirty[:n]
	} else {
		s.dirty = make([]bool, n)
	}
	for i := range s.dirty {
		s.dirty[i] = true
	}

	if s.getf == nil {
		s.getf = func(v ir.Value) T {
			if n := ir.ValueNum(v); n >= 0 && n < len(s.facts) {
				return s.facts[n]
			}
			return s.Lattice.Bottom()
		}
	}
	get := s.getf

	// Every instruction is already dirty, so seeding only joins facts.
	for _, sd := range seeds {
		if v := ir.ValueNum(sd.Val); v >= 0 && v < len(s.facts) {
			s.facts[v] = s.Lattice.Join(s.facts[v], sd.Fact)
		}
	}

	for lo := int32(0); lo < n; {
		from := lo
		lo = n
		for idx := from; idx < n; idx++ {
			if !s.dirty[idx] {
				continue
			}
			s.dirty[idx] = false
			in := fi.Instrs[idx]

			newFact, produces := s.Transfer(in, get)
			if !produces {
				continue
			}
			v, isVal := in.(ir.Value)
			if !isVal {
				continue
			}
			vn := ir.ValueNum(v)
			if vn < 0 || vn >= len(s.facts) {
				continue
			}
			old := s.facts[vn]
			merged := s.Lattice.Join(old, newFact)
			if s.Lattice.Equal(old, merged) {
				continue
			}
			s.facts[vn] = merged
			lo = s.markDirty(fi.users(vn), idx, lo)
			if vn < len(s.ExtraUses) {
				lo = s.markDirty(s.ExtraUses[vn], idx, lo)
			}
		}
	}
	return Facts[T]{info: fi, facts: s.facts}
}

// markDirty flags uses for re-evaluation. A use after the current index
// pos is reached later in this sweep; lo, the start of the next sweep,
// drops to the lowest use at or before pos.
func (s *ValueSolver[T]) markDirty(uses []int32, pos, lo int32) int32 {
	for _, u := range uses {
		if !s.dirty[u] {
			s.dirty[u] = true
			if u <= pos && u < lo {
				lo = u
			}
		}
	}
	return lo
}

// BoolLattice is the two-point lattice false ⊑ true used for may-facts
// ("may point to shared memory", "may be unsafe").
type BoolLattice struct{}

// Join implements Lattice.
func (BoolLattice) Join(a, b bool) bool { return a || b }

// Equal implements Lattice.
func (BoolLattice) Equal(a, b bool) bool { return a == b }

// Bottom implements Lattice.
func (BoolLattice) Bottom() bool { return false }
