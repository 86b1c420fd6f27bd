// IR verifier: structural validity checks on lowered modules, used by the
// front-end tests and the pipeline fuzzers to catch lowering bugs at the
// point of introduction rather than as analysis misbehavior downstream.

package irgen

import (
	"fmt"

	"safeflow/internal/cfgraph"
	"safeflow/internal/ir"
)

// Verify checks every defined function of m for structural validity:
//
//   - every block is terminated, exactly once, at the end;
//   - pred/succ lists are symmetric and match the terminators;
//   - phis lead their blocks and carry exactly one edge per predecessor;
//   - every instruction operand is a constant, global, parameter of the
//     same function, or an instruction whose definition dominates the use.
func Verify(m *ir.Module) []error {
	var errs []error
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		errs = append(errs, verifyFunc(f)...)
	}
	return errs
}

func verifyFunc(f *ir.Function) []error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: %s", f.Name, fmt.Sprintf(format, args...)))
	}

	if len(f.Blocks) == 0 {
		bad("no blocks")
		return errs
	}

	inFunc := make(map[*ir.Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFunc[b] = true
	}

	// Block structure.
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			bad("block %s is empty", b.Label)
			continue
		}
		if b.Term() == nil {
			bad("block %s is not terminated", b.Label)
		}
		seenNonPhi := false
		for i, in := range b.Instrs {
			if in.Parent() != b {
				bad("block %s instruction %d has wrong parent", b.Label, i)
			}
			switch x := in.(type) {
			case *ir.Phi:
				if seenNonPhi {
					bad("block %s: phi %s after non-phi instructions", b.Label, x.Ident())
				}
			case *ir.Br, *ir.Ret, *ir.Unreachable:
				if i != len(b.Instrs)-1 {
					bad("block %s: terminator at position %d of %d", b.Label, i, len(b.Instrs))
				}
			default:
				seenNonPhi = true
			}
		}

		// Terminator/successor agreement.
		switch t := b.Term().(type) {
		case *ir.Br:
			want := map[*ir.Block]bool{t.Then: true}
			if t.Else != nil {
				want[t.Else] = true
			}
			for _, s := range b.Succs {
				if !want[s] {
					bad("block %s: successor %s not named by terminator", b.Label, s.Label)
				}
				if !inFunc[s] {
					bad("block %s: successor %s outside function", b.Label, s.Label)
				}
			}
			for s := range want {
				if !containsBlock(b.Succs, s) {
					bad("block %s: terminator target %s missing from successors", b.Label, s.Label)
				}
			}
		case *ir.Ret, *ir.Unreachable:
			if len(b.Succs) != 0 {
				bad("block %s: exits with %d successors", b.Label, len(b.Succs))
			}
		}
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				bad("edge %s->%s not mirrored in preds", b.Label, s.Label)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				bad("pred edge %s->%s not mirrored in succs", p.Label, b.Label)
			}
		}
	}

	// Phi edges match predecessors exactly.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			phi, ok := in.(*ir.Phi)
			if !ok {
				continue
			}
			if len(phi.Edges) != len(b.Preds) {
				bad("block %s: phi %s has %d edges for %d preds", b.Label, phi.Ident(), len(phi.Edges), len(b.Preds))
				continue
			}
			seen := map[*ir.Block]bool{}
			for _, e := range phi.Edges {
				if seen[e.Pred] {
					bad("block %s: phi %s duplicates pred %s", b.Label, phi.Ident(), e.Pred.Label)
				}
				seen[e.Pred] = true
				if !containsBlock(b.Preds, e.Pred) {
					bad("block %s: phi %s edge from non-pred %s", b.Label, phi.Ident(), e.Pred.Label)
				}
			}
		}
	}

	// SSA dominance of operand uses.
	dt := cfgraph.NewDomTree(f)
	defBlock := make(map[ir.Value]*ir.Block)
	defIndex := make(map[ir.Value]int)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if v, isVal := in.(ir.Value); isVal {
				defBlock[v] = b
				defIndex[v] = i
			}
		}
	}
	paramSet := make(map[ir.Value]bool, len(f.Params))
	for _, p := range f.Params {
		paramSet[p] = true
	}
	validOperand := func(useB *ir.Block, useIdx int, op ir.Value, isPhi bool, phiPred *ir.Block) bool {
		switch op.(type) {
		case *ir.ConstInt, *ir.ConstFloat, *ir.ConstStr, *ir.Global, *ir.Function:
			return true
		}
		if paramSet[op] {
			return true
		}
		db, defined := defBlock[op]
		if !defined {
			return false
		}
		if isPhi {
			// A phi use is logically at the end of the incoming edge.
			return dt.Dominates(db, phiPred)
		}
		if db == useB {
			return defIndex[op] < useIdx
		}
		return dt.Dominates(db, useB)
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if phi, ok := in.(*ir.Phi); ok {
				for _, e := range phi.Edges {
					if !validOperand(b, i, e.Val, true, e.Pred) {
						bad("block %s: phi %s edge value %s does not dominate pred %s",
							b.Label, phi.Ident(), e.Val.Ident(), e.Pred.Label)
					}
				}
				continue
			}
			for _, op := range in.AppendOperands(nil) {
				if !validOperand(b, i, op, false, nil) {
					bad("block %s: operand %s of %q does not dominate its use",
						b.Label, op.Ident(), in.String())
				}
			}
		}
	}
	return errs
}

func containsBlock(list []*ir.Block, b *ir.Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}
