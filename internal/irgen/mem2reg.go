// mem2reg: promotion of scalar allocas to SSA registers, following the
// classic Cytron et al. construction — phi insertion at iterated dominance
// frontiers followed by a renaming walk over the dominator tree. This is
// the same transformation LLVM's -mem2reg performs on the bytecode the
// paper analyzes.

package irgen

import (
	"safeflow/internal/cfgraph"
	"safeflow/internal/ctypes"
	"safeflow/internal/ir"
)

// Promote rewrites promotable allocas in every defined function of m into
// SSA values. An alloca is promotable when it holds a scalar (integer,
// float, or pointer) and its address is used only as the operand of loads
// and the address operand of stores — i.e. it never escapes.
func Promote(m *ir.Module) {
	for _, f := range m.Funcs {
		if !f.IsDecl {
			promoteFunc(f)
			// Phi insertion and load/store removal invalidate the dense
			// numbering assigned at lowering time.
			f.NumberValues()
		}
	}
}

func promoteFunc(f *ir.Function) {
	allocas := promotableAllocas(f)
	if len(allocas) == 0 {
		return
	}
	dt := cfgraph.NewDomTree(f)
	df := dt.Frontiers()

	// Phase 1: insert phis at iterated dominance frontiers of defs.
	phiFor := make(map[*ir.Phi]*ir.Alloca)
	for _, a := range allocas {
		defBlocks := make(map[*ir.Block]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if st, ok := in.(*ir.Store); ok && st.Addr == a {
					defBlocks[b] = true
				}
			}
		}
		// Seed the worklist in block order: phi placement order decides
		// the phis' order in their blocks.
		hasPhi := make(map[*ir.Block]bool)
		work := make([]*ir.Block, 0, len(defBlocks))
		for _, b := range f.Blocks {
			if defBlocks[b] {
				work = append(work, b)
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[b] {
				if hasPhi[fb] {
					continue
				}
				hasPhi[fb] = true
				phi := &ir.Phi{Ty: a.Elem, Var: a.VarName}
				phi.SetPos(a.Pos())
				phi.SetParentBlock(fb)
				fb.Instrs = append([]ir.Instr{phi}, fb.Instrs...)
				phiFor[phi] = a
				if !defBlocks[fb] {
					defBlocks[fb] = true
					work = append(work, fb)
				}
			}
		}
	}

	// Phase 2: renaming walk over the dominator tree.
	type frame struct {
		block *ir.Block
		stack map[*ir.Alloca]ir.Value // incoming values (copied lazily)
	}
	promoted := make(map[*ir.Alloca]bool, len(allocas))
	for _, a := range allocas {
		promoted[a] = true
	}
	replacement := make(map[ir.Value]ir.Value) // load -> current value

	var rename func(b *ir.Block, incoming map[*ir.Alloca]ir.Value)
	rename = func(b *ir.Block, incoming map[*ir.Alloca]ir.Value) {
		cur := make(map[*ir.Alloca]ir.Value, len(incoming))
		for k, v := range incoming {
			cur[k] = v
		}
		var kept []ir.Instr
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Phi:
				if a, ok := phiFor[x]; ok {
					cur[a] = x
				}
				kept = append(kept, in)
			case *ir.Alloca:
				if promoted[x] {
					cur[x] = undefFor(x.Elem)
					continue // drop the alloca
				}
				kept = append(kept, in)
			case *ir.Load:
				if a, ok := x.Addr.(*ir.Alloca); ok && promoted[a] {
					v := cur[a]
					if v == nil {
						v = undefFor(a.Elem)
					}
					replacement[x] = v
					continue // drop the load
				}
				kept = append(kept, in)
			case *ir.Store:
				if a, ok := x.Addr.(*ir.Alloca); ok && promoted[a] {
					cur[a] = resolve(replacement, x.Val)
					continue // drop the store
				}
				kept = append(kept, in)
			default:
				kept = append(kept, in)
			}
		}
		b.Instrs = kept

		// Fill successor phi edges.
		for _, s := range b.Succs {
			for _, in := range s.Instrs {
				phi, ok := in.(*ir.Phi)
				if !ok {
					break // phis lead the block
				}
				a, isProm := phiFor[phi]
				if !isProm {
					continue
				}
				v := cur[a]
				if v == nil {
					v = undefFor(a.Elem)
				}
				phi.Edges = append(phi.Edges, ir.PhiEdge{Val: resolve(replacement, v), Pred: b})
			}
		}

		for _, child := range dt.Children(b) {
			rename(child, cur)
		}
	}
	rename(f.Entry(), make(map[*ir.Alloca]ir.Value))

	// Phase 3: rewrite remaining operand references to dropped loads.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			rewriteOperands(in, replacement)
		}
	}

	// Drop trivial phis (all edges identical) for cleanliness.
	simplifyPhis(f, phiFor)
}

// resolve chases replacement chains (load -> value that may itself be a
// dropped load).
func resolve(repl map[ir.Value]ir.Value, v ir.Value) ir.Value {
	for {
		next, ok := repl[v]
		if !ok {
			return v
		}
		v = next
	}
}

func undefFor(t ctypes.Type) ir.Value {
	if ctypes.IsFloat(t) {
		return &ir.ConstFloat{Val: 0, Ty: t}
	}
	return &ir.ConstInt{Val: 0, Ty: t}
}

// promotableAllocas lists allocas that hold scalars and never escape.
func promotableAllocas(f *ir.Function) []*ir.Alloca {
	escaped := make(map[*ir.Alloca]bool)
	var all []*ir.Alloca
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if a, ok := in.(*ir.Alloca); ok {
				if ctypes.IsScalar(a.Elem) {
					all = append(all, a)
				} else {
					escaped[a] = true
				}
			}
		}
	}
	var ops []ir.Value
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Load:
				// Using an alloca as a load address is fine.
			case *ir.Store:
				// The address operand is fine; storing the alloca's address
				// itself escapes it.
				if a, ok := x.Val.(*ir.Alloca); ok {
					escaped[a] = true
				}
			default:
				ops = in.AppendOperands(ops[:0])
				for _, op := range ops {
					if a, ok := op.(*ir.Alloca); ok {
						escaped[a] = true
					}
				}
				_ = x
			}
		}
	}
	var out []*ir.Alloca
	for _, a := range all {
		if !escaped[a] {
			out = append(out, a)
		}
	}
	return out
}

// rewriteOperands replaces dropped-load operands in place.
func rewriteOperands(in ir.Instr, repl map[ir.Value]ir.Value) {
	switch x := in.(type) {
	case *ir.Load:
		x.Addr = resolve(repl, x.Addr)
	case *ir.Store:
		x.Val = resolve(repl, x.Val)
		x.Addr = resolve(repl, x.Addr)
	case *ir.GEP:
		x.Base = resolve(repl, x.Base)
		for i := range x.Indices {
			if x.Indices[i].Index != nil {
				x.Indices[i].Index = resolve(repl, x.Indices[i].Index)
			}
		}
	case *ir.BinOp:
		x.X = resolve(repl, x.X)
		x.Y = resolve(repl, x.Y)
	case *ir.Cmp:
		x.X = resolve(repl, x.X)
		x.Y = resolve(repl, x.Y)
	case *ir.Cast:
		x.X = resolve(repl, x.X)
	case *ir.Call:
		for i := range x.Args {
			x.Args[i] = resolve(repl, x.Args[i])
		}
	case *ir.Phi:
		for i := range x.Edges {
			x.Edges[i].Val = resolve(repl, x.Edges[i].Val)
		}
	case *ir.Ret:
		if x.X != nil {
			x.X = resolve(repl, x.X)
		}
	case *ir.Br:
		if x.Cond != nil {
			x.Cond = resolve(repl, x.Cond)
		}
	}
}

// simplifyPhis removes phis whose incoming values are all the same value
// (or the phi itself), replacing uses with that value. Runs to a fixpoint.
func simplifyPhis(f *ir.Function, phiFor map[*ir.Phi]*ir.Alloca) {
	for {
		repl := make(map[ir.Value]ir.Value)
		for _, b := range f.Blocks {
			var kept []ir.Instr
			for _, in := range b.Instrs {
				phi, ok := in.(*ir.Phi)
				if !ok {
					kept = append(kept, in)
					continue
				}
				if _, isProm := phiFor[phi]; !isProm {
					kept = append(kept, in)
					continue
				}
				var uniq ir.Value
				trivial := true
				for _, e := range phi.Edges {
					if e.Val == phi {
						continue
					}
					if uniq == nil {
						uniq = e.Val
					} else if uniq != e.Val {
						trivial = false
						break
					}
				}
				if trivial && uniq != nil {
					repl[phi] = uniq
					continue // drop
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
		if len(repl) == 0 {
			return
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				rewriteOperands(in, repl)
			}
		}
	}
}
