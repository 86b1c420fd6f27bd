// Package restrict implements phase 2 of the SafeFlow analysis: the
// language restrictions on shared-memory pointer usage (paper §3.2).
//
//	P1: shared memory is not deallocated before the end of main;
//	P2: shared-memory pointers are never aliased through memory (no
//	    address-taking, no stores of shm pointers, no rebasing the region
//	    globals outside initializing functions);
//	P3: no casts between incompatible shm pointer types and no
//	    pointer<->integer casts on shm pointers;
//	A1: constant indices into shm arrays are within bounds;
//	A2: variable (loop) indices into shm arrays are provably-affine and
//	    provably in bounds, checked by generating affine constraints from
//	    dominating guards and induction patterns and asking the
//	    Fourier–Motzkin solver (the Omega stand-in) for infeasibility of
//	    the out-of-bounds conditions.
//
// Initializing functions (shminit) are exempt, exactly as in the paper:
// untyped SysV allocation forces pointer casts and arithmetic there.
package restrict

import (
	"fmt"

	"safeflow/internal/affine"
	"safeflow/internal/ctoken"
	"safeflow/internal/ctypes"
	"safeflow/internal/ir"
	"safeflow/internal/shmflow"
)

// Rule identifies which restriction a violation breaks.
type Rule string

// Restriction rules.
const (
	RuleP1 Rule = "P1"
	RuleP2 Rule = "P2"
	RuleP3 Rule = "P3"
	RuleA1 Rule = "A1"
	RuleA2 Rule = "A2"
)

// Violation is one restriction violation.
type Violation struct {
	Rule Rule
	Fn   *ir.Function
	Pos  ctoken.Pos
	Msg  string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: restriction %s violated in %s: %s", v.Pos, v.Rule, v.Fn.Name, v.Msg)
}

// Check runs all restriction checks over the module.
func Check(m *ir.Module, sf *shmflow.Result) []Violation {
	c := &checker{m: m, sf: sf}
	for _, f := range m.Funcs {
		if f.IsDecl || sf.InitFuncs[f] {
			continue
		}
		c.checkFunction(f)
	}
	return c.out
}

type checker struct {
	m   *ir.Module
	sf  *shmflow.Result
	out []Violation
	ops []ir.Value // operand buffer reused across instructions
}

func (c *checker) report(rule Rule, f *ir.Function, pos ctoken.Pos, format string, args ...any) {
	c.out = append(c.out, Violation{Rule: rule, Fn: f, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) isShm(f *ir.Function, v ir.Value) bool { return c.sf.IsShmPointer(f, v) }

func (c *checker) isRegionGlobal(v ir.Value) *shmflow.Region {
	g, ok := v.(*ir.Global)
	if !ok {
		return nil
	}
	return c.sf.RegionByName[g.Name]
}

func (c *checker) checkFunction(f *ir.Function) {
	var guards *guardIndex // built lazily; only array checks need it
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Call:
				c.checkCall(f, x)
			case *ir.Store:
				c.checkStore(f, x)
			case *ir.Cast:
				c.checkCast(f, x)
			case *ir.GEP:
				if c.needsArrayCheck(f, x) {
					if guards == nil {
						guards = newGuardIndex(f)
					}
					c.checkArrayAccess(f, x, guards)
				}
			}
			// P2(b): the address of a region global escaping into any use
			// other than load/store addressing.
			c.checkRegionGlobalEscape(f, in)
		}
	}
}

// ---------------------------------------------------------------------------
// P1: deallocation

var deallocFuncs = map[string]bool{"shmdt": true, "shmctl": true}

func (c *checker) checkCall(f *ir.Function, call *ir.Call) {
	if !deallocFuncs[call.Callee.Name] {
		return
	}
	involvesShm := false
	for _, a := range call.Args {
		if c.isShm(f, a) {
			involvesShm = true
		}
	}
	if call.Callee.Name == "shmctl" {
		// shmctl(id, IPC_RMID, ...) destroys the segment; the id is an int,
		// so flag every shmctl in the analyzed component conservatively.
		involvesShm = true
	}
	if !involvesShm {
		return
	}
	if f.Name == "main" && atFunctionEnd(call) {
		return // detaching at the end of main is the one permitted pattern
	}
	c.report(RuleP1, f, call.Pos(),
		"shared memory deallocated via %s before the end of main", call.Callee.Name)
}

// atFunctionEnd reports whether every instruction after call in its block
// is another deallocation or an exit, and the block ends in ret.
func atFunctionEnd(call *ir.Call) bool {
	b := call.Parent()
	seen := false
	for _, in := range b.Instrs {
		if in == call {
			seen = true
			continue
		}
		if !seen {
			continue
		}
		switch x := in.(type) {
		case *ir.Call:
			if !deallocFuncs[x.Callee.Name] && x.Callee.Name != "exit" {
				return false
			}
		case *ir.Ret:
			return true
		default:
			return false
		}
	}
	_, isRet := b.Term().(*ir.Ret)
	return isRet
}

// ---------------------------------------------------------------------------
// P2: aliasing through memory

func (c *checker) checkStore(f *ir.Function, st *ir.Store) {
	if c.isShm(f, st.Val) {
		c.report(RuleP2, f, st.Pos(),
			"pointer to shared memory stored to memory (aliasing shm pointers is disallowed)")
	}
	if reg := c.isRegionGlobal(st.Addr); reg != nil {
		c.report(RuleP2, f, st.Pos(),
			"shared-memory variable %q reassigned outside its initializing function", reg.Name)
	}
}

func (c *checker) checkRegionGlobalEscape(f *ir.Function, in ir.Instr) {
	c.ops = in.AppendOperands(c.ops[:0])
	for _, op := range c.ops {
		reg := c.isRegionGlobal(op)
		if reg == nil {
			continue
		}
		switch x := in.(type) {
		case *ir.Load:
			// Reading the region pointer is the intended use.
		case *ir.Store:
			// Handled by checkStore (Addr case); the Val case means the
			// *address* of the global escapes.
			if x.Val == op {
				c.report(RuleP2, f, in.Pos(),
					"address of shared-memory variable %q stored to memory", reg.Name)
			}
		default:
			c.report(RuleP2, f, in.Pos(),
				"address of shared-memory variable %q taken (used by %T)", reg.Name, in)
		}
	}
}

// ---------------------------------------------------------------------------
// P3: casts

func (c *checker) checkCast(f *ir.Function, x *ir.Cast) {
	if !c.isShm(f, x.X) {
		return
	}
	switch x.Kind {
	case ir.PtrToInt:
		c.report(RuleP3, f, x.Pos(), "pointer to shared memory cast to integer")
	case ir.Bitcast:
		if !ctypes.Compatible(x.X.Type(), x.To) {
			c.report(RuleP3, f, x.Pos(),
				"pointer to shared memory cast between incompatible types (%s to %s)",
				x.X.Type(), x.To)
		}
	}
}

// ---------------------------------------------------------------------------
// A1/A2: array indexing

// needsArrayCheck reports whether the GEP indexes shared memory with at
// least one element-index step (constant or not).
func (c *checker) needsArrayCheck(f *ir.Function, g *ir.GEP) bool {
	if !c.isShm(f, g.Base) {
		return false
	}
	for _, ix := range g.Indices {
		if ix.Index != nil {
			if ci, isConst := ix.Index.(*ir.ConstInt); !isConst || ci.Val != 0 {
				return true
			}
		}
	}
	return false
}

// checkArrayAccess verifies A1 (constant) and A2 (affine/loop) bounds for
// one shm GEP: the resulting byte range must stay within each region the
// base may reference, and inner array steps must stay within the array.
func (c *checker) checkArrayAccess(f *ir.Function, g *ir.GEP, guards *guardIndex) {
	ext := newExtractor(f)

	cur := g.Base.Type()
	for _, ix := range g.Indices {
		p, ok := cur.(*ctypes.Pointer)
		if !ok {
			return
		}
		switch {
		case ix.Index == nil:
			st, ok := p.Elem.(*ctypes.Struct)
			if !ok || ix.Field >= len(st.Fields) {
				return
			}
			cur = &ctypes.Pointer{Elem: st.Fields[ix.Field].Type}
		default:
			arr, isArr := p.Elem.(*ctypes.Array)
			var limit int64
			var elem ctypes.Type
			if isArr {
				limit = arr.Len
				elem = arr.Elem
				cur = &ctypes.Pointer{Elem: arr.Elem}
			} else {
				// Pointer-step into the region itself: bound by region size
				// in elements (checked per region below when exact).
				elem = p.Elem
				limit = -1
			}
			c.checkIndex(f, g, ix.Index, limit, elem, ext, guards)
		}
	}
}

// checkIndex checks 0 <= idx < limit. limit < 0 means "bounded by the
// smallest region size in elements".
func (c *checker) checkIndex(f *ir.Function, g *ir.GEP, idx ir.Value, limit int64, elem ctypes.Type, ext *extractor, guards *guardIndex) {
	if limit < 0 {
		lim := int64(-1)
		for reg := range c.sf.FactOf(f, g.Base) {
			n := reg.Size / max64(elem.Size(), 1)
			if lim < 0 || n < lim {
				lim = n
			}
		}
		if lim < 0 {
			return
		}
		limit = lim
	}

	if ci, isConst := idx.(*ir.ConstInt); isConst {
		if ci.Val < 0 || ci.Val >= limit {
			c.report(RuleA1, f, g.Pos(),
				"constant index %d outside shared-memory array bounds [0,%d)", ci.Val, limit)
		}
		return
	}

	// A2: the index must be affine over recognized atoms.
	expr, ok := ext.affineOf(idx)
	if !ok {
		c.report(RuleA2, f, g.Pos(),
			"shared-memory array index is not a provably-affine expression of loop variables")
		return
	}

	sys := &affine.System{}
	guards.constraintsFor(g.Parent(), ext, sys)
	ext.inductionConstraints(sys)

	under := sys.Clone()
	under.Add(affine.LE(expr, affine.NewExpr(-1))) // idx <= -1
	over := sys.Clone()
	over.Add(affine.GE(expr, affine.NewExpr(limit))) // idx >= limit

	if !under.Infeasible() {
		c.report(RuleA2, f, g.Pos(),
			"shared-memory array index not provably non-negative")
	}
	if !over.Infeasible() {
		c.report(RuleA2, f, g.Pos(),
			"shared-memory array index not provably below bound %d", limit)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
