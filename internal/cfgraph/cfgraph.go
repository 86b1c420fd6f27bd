// Package cfgraph provides control-flow-graph analyses over ir functions:
// reverse postorder, dominator trees (Cooper–Harvey–Kennedy), dominance
// frontiers (for SSA construction), post-dominators, and control
// dependence (post-dominance frontiers) used to classify the paper's
// control-dependence false positives.
package cfgraph

import (
	"safeflow/internal/ir"
)

// DomTree is the dominator tree of a function (or its reverse CFG when
// built with NewPostDomTree).
type DomTree struct {
	fn      *ir.Function
	order   []*ir.Block // reverse postorder (forward or reverse CFG)
	rpoNum  map[*ir.Block]int
	idom    map[*ir.Block]*ir.Block
	childs  map[*ir.Block][]*ir.Block
	reverse bool
	// virtualExit is non-nil for post-dominator trees: a synthetic sink that
	// post-dominates every return block.
	virtualExit *ir.Block
}

// NewDomTree computes the dominator tree from the entry block.
func NewDomTree(fn *ir.Function) *DomTree {
	t := &DomTree{fn: fn, reverse: false}
	t.build()
	return t
}

// NewPostDomTree computes the post-dominator tree (dominators of the
// reverse CFG, rooted at a virtual exit that all Ret/Unreachable blocks
// reach).
func NewPostDomTree(fn *ir.Function) *DomTree {
	t := &DomTree{fn: fn, reverse: true}
	t.virtualExit = &ir.Block{Label: "@exit", Fn: fn, Index: -1}
	t.build()
	return t
}

func (t *DomTree) succs(b *ir.Block) []*ir.Block {
	if b == t.virtualExit {
		if t.reverse {
			return t.exitBlocks()
		}
		return nil
	}
	if !t.reverse {
		return b.Succs
	}
	// Reverse CFG: successors are CFG predecessors; exit blocks gain the
	// virtual exit as a predecessor (i.e. preds in reverse orientation).
	return b.Preds
}

func (t *DomTree) preds(b *ir.Block) []*ir.Block {
	if !t.reverse {
		return b.Preds
	}
	out := b.Succs
	if t.isExit(b) {
		out = append(append([]*ir.Block{}, out...), t.virtualExit)
	}
	return out
}

func (t *DomTree) isExit(b *ir.Block) bool {
	switch b.Term().(type) {
	case *ir.Ret, *ir.Unreachable:
		return true
	case nil:
		return true // malformed/unterminated; treat as exit for robustness
	}
	// Infinite loops never reach an exit; they're handled by also treating
	// blocks with no path to a return as exits during build (see below).
	return false
}

func (t *DomTree) exitBlocks() []*ir.Block {
	var out []*ir.Block
	for _, b := range t.fn.Blocks {
		if t.isExit(b) {
			out = append(out, b)
		}
	}
	return out
}

func (t *DomTree) root() *ir.Block {
	if t.reverse {
		return t.virtualExit
	}
	return t.fn.Entry()
}

// build runs the Cooper–Harvey–Kennedy iterative algorithm.
func (t *DomTree) build() {
	root := t.root()
	t.order = t.reversePostorder(root)
	t.rpoNum = make(map[*ir.Block]int, len(t.order))
	for i, b := range t.order {
		t.rpoNum[b] = i
	}

	// For post-dominance with infinite loops, some blocks are unreachable
	// from the virtual exit in the reverse CFG; connect them by treating
	// loop headers of unreachable cycles as extra exits. Simpler and sound
	// for control dependence: append any unvisited block directly under the
	// root.
	t.idom = map[*ir.Block]*ir.Block{root: root}
	changed := true
	for changed {
		changed = false
		for _, b := range t.order {
			if b == root {
				continue
			}
			var newIdom *ir.Block
			for _, p := range t.preds(b) {
				if _, ok := t.idom[p]; !ok {
					continue
				}
				if _, seen := t.rpoNum[p]; !seen {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom == nil {
				continue
			}
			if t.idom[b] != newIdom {
				t.idom[b] = newIdom
				changed = true
			}
		}
	}

	// Any block not reached (unreachable code, or no path to exit in the
	// reverse graph) hangs off the root.
	for _, b := range t.fn.Blocks {
		if _, ok := t.idom[b]; !ok {
			t.idom[b] = root
		}
	}

	// Children follow block order, so every walk over the tree (mem2reg's
	// renaming, hence phi edges and SSA names) is the same on every
	// compile.
	t.childs = make(map[*ir.Block][]*ir.Block)
	for _, b := range t.fn.Blocks {
		if d := t.idom[b]; d != b {
			t.childs[d] = append(t.childs[d], b)
		}
	}
}

func (t *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		na, aok := t.rpoNum[a]
		nb, bok := t.rpoNum[b]
		if !aok || !bok {
			return t.root()
		}
		for na > nb {
			a = t.idom[a]
			na = t.rpoNum[a]
		}
		for nb > na {
			b = t.idom[b]
			nb = t.rpoNum[b]
		}
	}
	return a
}

func (t *DomTree) reversePostorder(root *ir.Block) []*ir.Block {
	var order []*ir.Block
	seen := make(map[*ir.Block]bool)
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		seen[b] = true
		for _, s := range t.succs(b) {
			if !seen[s] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	if root != nil {
		visit(root)
	}
	// Reverse to get reverse postorder.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// IDom returns the immediate dominator of b (or b itself for the root).
func (t *DomTree) IDom(b *ir.Block) *ir.Block { return t.idom[b] }

// Children returns the dominator-tree children of b.
func (t *DomTree) Children(b *ir.Block) []*ir.Block { return t.childs[b] }

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		next := t.idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// RPO returns the blocks in reverse postorder of the (possibly reverse)
// CFG, excluding any virtual exit.
func (t *DomTree) RPO() []*ir.Block {
	var out []*ir.Block
	for _, b := range t.order {
		if b != t.virtualExit {
			out = append(out, b)
		}
	}
	return out
}

// Frontiers computes the dominance frontier of every block (Cytron et
// al.), used for phi placement during mem2reg.
func (t *DomTree) Frontiers() map[*ir.Block][]*ir.Block {
	df := make(map[*ir.Block][]*ir.Block)
	add := func(b, f *ir.Block) {
		for _, x := range df[b] {
			if x == f {
				return
			}
		}
		df[b] = append(df[b], f)
	}
	for _, b := range t.fn.Blocks {
		preds := t.preds(b)
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			runner := p
			for runner != nil && runner != t.idom[b] {
				add(runner, b)
				next := t.idom[runner]
				if next == runner {
					break
				}
				runner = next
			}
		}
	}
	return df
}

// ControlDeps computes control dependence: ControlDeps(fn)[B] lists the
// (branch block, condition value) pairs B is control dependent on, via the
// classic Ferrante–Ottenstein–Warren construction on the post-dominator
// tree: B is control dependent on A iff A has a successor S such that B
// post-dominates S but B does not post-dominate A.
type ControlDep struct {
	Branch *ir.Block // the block whose conditional branch controls execution
	Cond   ir.Value  // the branch condition
}

// ControlDeps computes the control-dependence relation for fn.
func ControlDeps(fn *ir.Function) map[*ir.Block][]ControlDep {
	pdt := NewPostDomTree(fn)
	deps := make(map[*ir.Block][]ControlDep)
	for _, a := range fn.Blocks {
		br, ok := a.Term().(*ir.Br)
		if !ok || br.Cond == nil {
			continue
		}
		for _, s := range a.Succs {
			// Walk up the post-dominator tree from s to (exclusive) the
			// post-dominator of a; every node on the way is control
			// dependent on a.
			runner := s
			for runner != nil && runner != pdt.IDom(a) && runner != pdt.virtualExit {
				if runner != a || true { // a may be control dependent on itself (loops)
					deps[runner] = appendDep(deps[runner], ControlDep{Branch: a, Cond: br.Cond})
				}
				next := pdt.IDom(runner)
				if next == runner {
					break
				}
				runner = next
			}
		}
	}
	return deps
}

func appendDep(list []ControlDep, d ControlDep) []ControlDep {
	for _, x := range list {
		if x.Branch == d.Branch {
			return list
		}
	}
	return append(list, d)
}
