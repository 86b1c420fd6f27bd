package cfgraph

import (
	"testing"

	"safeflow/internal/ctypes"
	"safeflow/internal/ir"
)

// buildCFG constructs a function with the given block labels and edges.
func buildCFG(labels []string, edges [][2]int, terminators map[int]string) (*ir.Function, []*ir.Block) {
	fn := &ir.Function{Name: "t", Sig: &ctypes.Func{Result: ctypes.VoidType}}
	blocks := make([]*ir.Block, len(labels))
	for i, l := range labels {
		b := fn.NewBlock(l)
		blocks[i] = b
	}
	succs := make(map[int][]int)
	for _, e := range edges {
		succs[e[0]] = append(succs[e[0]], e[1])
	}
	for i, b := range blocks {
		out := succs[i]
		switch len(out) {
		case 0:
			ir.Terminate(b, &ir.Ret{})
		case 1:
			ir.Terminate(b, &ir.Br{Then: blocks[out[0]]})
		case 2:
			cond := &ir.Cmp{Op: ir.NE, X: &ir.ConstInt{Val: 1, Ty: ctypes.IntType}, Y: &ir.ConstInt{Ty: ctypes.IntType}}
			b.Append(cond)
			ir.Terminate(b, &ir.Br{Cond: cond, Then: blocks[out[0]], Else: blocks[out[1]]})
		}
	}
	_ = terminators
	return fn, blocks
}

// Diamond: 0 -> 1,2 -> 3.
func diamond() (*ir.Function, []*ir.Block) {
	return buildCFG(
		[]string{"entry", "then", "els", "merge"},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		nil,
	)
}

func TestDomTreeDiamond(t *testing.T) {
	fn, b := diamond()
	dt := NewDomTree(fn)
	if dt.IDom(b[1]) != b[0] || dt.IDom(b[2]) != b[0] {
		t.Errorf("idom(then)=%v idom(else)=%v, want entry", dt.IDom(b[1]).Label, dt.IDom(b[2]).Label)
	}
	if dt.IDom(b[3]) != b[0] {
		t.Errorf("idom(merge) = %v, want entry", dt.IDom(b[3]).Label)
	}
	if !dt.Dominates(b[0], b[3]) {
		t.Error("entry must dominate merge")
	}
	if dt.Dominates(b[1], b[3]) {
		t.Error("then must not dominate merge")
	}
	if !dt.Dominates(b[3], b[3]) {
		t.Error("domination is reflexive")
	}
}

func TestDomFrontierDiamond(t *testing.T) {
	fn, b := diamond()
	df := NewDomTree(fn).Frontiers()
	hasMerge := func(blk *ir.Block) bool {
		for _, f := range df[blk] {
			if f == b[3] {
				return true
			}
		}
		return false
	}
	if !hasMerge(b[1]) || !hasMerge(b[2]) {
		t.Errorf("DF(then)=%v DF(else)=%v, want both to contain merge", df[b[1]], df[b[2]])
	}
	if len(df[b[3]]) != 0 {
		t.Errorf("DF(merge) = %v, want empty", df[b[3]])
	}
}

// Loop: 0 -> 1; 1 -> 2,3; 2 -> 1; 3 exits.
func loopCFG() (*ir.Function, []*ir.Block) {
	return buildCFG(
		[]string{"entry", "header", "body", "exit"},
		[][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 1}},
		nil,
	)
}

func TestDomTreeLoop(t *testing.T) {
	fn, b := loopCFG()
	dt := NewDomTree(fn)
	if dt.IDom(b[2]) != b[1] || dt.IDom(b[3]) != b[1] {
		t.Errorf("loop idoms wrong: body<-%s exit<-%s", dt.IDom(b[2]).Label, dt.IDom(b[3]).Label)
	}
	// The header is its own frontier (back edge).
	df := dt.Frontiers()
	found := false
	for _, f := range df[b[2]] {
		if f == b[1] {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(body) = %v, want header", df[b[2]])
	}
}

func TestPostDomDiamond(t *testing.T) {
	fn, b := diamond()
	pdt := NewPostDomTree(fn)
	// merge post-dominates everything.
	if pdt.IDom(b[1]) != b[3] || pdt.IDom(b[2]) != b[3] {
		t.Errorf("postdom: then<-%s else<-%s, want merge", pdt.IDom(b[1]).Label, pdt.IDom(b[2]).Label)
	}
	if pdt.IDom(b[0]) != b[3] {
		t.Errorf("postdom(entry) = %s, want merge", pdt.IDom(b[0]).Label)
	}
}

func TestControlDepsDiamond(t *testing.T) {
	fn, b := diamond()
	deps := ControlDeps(fn)
	for _, arm := range []*ir.Block{b[1], b[2]} {
		if len(deps[arm]) != 1 || deps[arm][0].Branch != b[0] {
			t.Errorf("deps(%s) = %v, want [entry]", arm.Label, deps[arm])
		}
	}
	if len(deps[b[3]]) != 0 {
		t.Errorf("deps(merge) = %v, want none (it post-dominates the branch)", deps[b[3]])
	}
}

func TestControlDepsLoop(t *testing.T) {
	fn, b := loopCFG()
	deps := ControlDeps(fn)
	// The body and the header itself are control dependent on the header's
	// branch (classic loop self-dependence).
	if len(deps[b[2]]) == 0 {
		t.Errorf("loop body has no control deps")
	}
	foundSelf := false
	for _, d := range deps[b[1]] {
		if d.Branch == b[1] {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Errorf("loop header not control dependent on itself: %v", deps[b[1]])
	}
	if len(deps[b[0]]) != 0 {
		t.Errorf("entry has control deps: %v", deps[b[0]])
	}
}

// Triangle: 0 -> 1,2; 1 -> 2.
func TestControlDepsTriangle(t *testing.T) {
	fn, b := buildCFG(
		[]string{"entry", "then", "join"},
		[][2]int{{0, 1}, {0, 2}, {1, 2}},
		nil,
	)
	deps := ControlDeps(fn)
	if len(deps[b[1]]) != 1 {
		t.Errorf("deps(then) = %v, want the entry branch", deps[b[1]])
	}
	if len(deps[b[2]]) != 0 {
		t.Errorf("deps(join) = %v, want none", deps[b[2]])
	}
}

func TestInfiniteLoopPostDom(t *testing.T) {
	// 0 -> 1; 1 -> 1 (no exit). Post-dominator computation must not hang
	// or crash; every block hangs off the virtual exit.
	fn := &ir.Function{Name: "inf", Sig: &ctypes.Func{Result: ctypes.VoidType}}
	b0 := fn.NewBlock("entry")
	b1 := fn.NewBlock("spin")
	ir.Terminate(b0, &ir.Br{Then: b1})
	ir.Terminate(b1, &ir.Br{Then: b1})
	pdt := NewPostDomTree(fn)
	if pdt.IDom(b1) == nil {
		t.Error("no idom for spinning block")
	}
	deps := ControlDeps(fn)
	_ = deps // must simply terminate
}

func TestRPOOrder(t *testing.T) {
	fn, b := diamond()
	dt := NewDomTree(fn)
	order := dt.RPO()
	pos := map[*ir.Block]int{}
	for i, blk := range order {
		pos[blk] = i
	}
	if pos[b[0]] != 0 {
		t.Errorf("entry not first in RPO")
	}
	if pos[b[3]] != len(order)-1 {
		t.Errorf("merge not last in RPO: %v", pos)
	}
}

// TestChildrenFollowBlockOrder pins the dominator-tree children to block
// order in both trees: mem2reg walks the tree to rename, so any other
// order changes phi edges and SSA names from one compile to the next.
func TestChildrenFollowBlockOrder(t *testing.T) {
	// Three diamonds in a row: 0->1,2->3->4,5->6->7,8->9.
	fn, b := buildCFG(
		[]string{"e", "a", "b", "m", "c", "d", "n", "f", "g", "x"},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}, {6, 7}, {6, 8}, {7, 9}, {8, 9}},
		nil,
	)
	inOrder := func(kids []*ir.Block) bool {
		for i := 1; i < len(kids); i++ {
			if kids[i-1].Index >= kids[i].Index {
				return false
			}
		}
		return true
	}
	for iter := 0; iter < 20; iter++ {
		dt := NewDomTree(fn)
		for _, x := range []int{0, 3, 6} {
			kids := dt.Children(b[x])
			if len(kids) != 3 || !inOrder(kids) {
				t.Fatalf("dom children of %s: %v, want three in block order", b[x].Label, labels(kids))
			}
		}
		pdt := NewPostDomTree(fn)
		for _, blk := range fn.Blocks {
			if kids := pdt.Children(blk); !inOrder(kids) {
				t.Fatalf("post-dom children of %s: %v, not in block order", blk.Label, labels(kids))
			}
		}
		if kids := pdt.Children(pdt.virtualExit); !inOrder(kids) {
			t.Fatalf("post-dom children of the exit: %v, not in block order", labels(kids))
		}
	}
}

func labels(bs []*ir.Block) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Label
	}
	return out
}
