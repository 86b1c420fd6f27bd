package callgraph

import (
	"testing"

	"safeflow/internal/ctypes"
	"safeflow/internal/ir"
)

// buildModule creates defined functions with the given call edges.
func buildModule(names []string, calls [][2]int) (*ir.Module, []*ir.Function) {
	m := ir.NewModule("t")
	fns := make([]*ir.Function, len(names))
	for i, n := range names {
		f := &ir.Function{Name: n, Sig: &ctypes.Func{Result: ctypes.VoidType}}
		m.AddFunc(f)
		fns[i] = f
	}
	blocks := make([]*ir.Block, len(names))
	for i, f := range fns {
		blocks[i] = f.NewBlock("entry")
	}
	for _, c := range calls {
		blocks[c[0]].Append(&ir.Call{Callee: fns[c[1]]})
	}
	for _, b := range blocks {
		ir.Terminate(b, &ir.Ret{})
	}
	return m, fns
}

func TestCallEdges(t *testing.T) {
	m, fns := buildModule([]string{"main", "a", "b"}, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	g := New(m)
	if len(g.Callees[fns[0]]) != 2 {
		t.Errorf("main callees = %v", g.Callees[fns[0]])
	}
	if len(g.Callers[fns[2]]) != 2 {
		t.Errorf("b callers = %v", g.Callers[fns[2]])
	}
}

func TestDuplicateCallsDeduped(t *testing.T) {
	m, fns := buildModule([]string{"main", "a"}, [][2]int{{0, 1}, {0, 1}, {0, 1}})
	g := New(m)
	if len(g.Callees[fns[0]]) != 1 {
		t.Errorf("callees = %v, want deduped to 1", g.Callees[fns[0]])
	}
}

func TestBottomUpOrder(t *testing.T) {
	// main -> a -> b: bottom-up must yield b before a before main.
	m, fns := buildModule([]string{"main", "a", "b"}, [][2]int{{0, 1}, {1, 2}})
	g := New(m)
	order := g.BottomUp()
	pos := map[*ir.Function]int{}
	for i, scc := range order {
		for _, f := range scc.Funcs {
			pos[f] = i
		}
	}
	if !(pos[fns[2]] < pos[fns[1]] && pos[fns[1]] < pos[fns[0]]) {
		t.Errorf("bottom-up positions: main=%d a=%d b=%d", pos[fns[0]], pos[fns[1]], pos[fns[2]])
	}
	td := g.TopDown()
	if td[0].Funcs[0] != fns[0] {
		t.Errorf("top-down first = %v", td[0].Funcs[0].Name)
	}
}

func TestSCCCycle(t *testing.T) {
	// a <-> b form one SCC; main above them.
	m, fns := buildModule([]string{"main", "a", "b"}, [][2]int{{0, 1}, {1, 2}, {2, 1}})
	g := New(m)
	sa, sb := g.SCCOf(fns[1]), g.SCCOf(fns[2])
	if sa != sb {
		t.Fatal("mutually recursive functions in different SCCs")
	}
	if len(sa.Funcs) != 2 {
		t.Errorf("SCC size = %d, want 2", len(sa.Funcs))
	}
	if !sa.Recursive(g) {
		t.Error("cycle SCC not marked recursive")
	}
	if g.SCCOf(fns[0]).Recursive(g) {
		t.Error("main wrongly recursive")
	}
}

func TestSelfRecursion(t *testing.T) {
	m, fns := buildModule([]string{"f"}, [][2]int{{0, 0}})
	g := New(m)
	if !g.SCCOf(fns[0]).Recursive(g) {
		t.Error("self-recursive function not marked recursive")
	}
}

func TestExternalCalleesExcluded(t *testing.T) {
	m := ir.NewModule("t")
	ext := &ir.Function{Name: "printf", Sig: &ctypes.Func{Result: ctypes.IntType, Variadic: true}, IsDecl: true}
	m.AddFunc(ext)
	f := &ir.Function{Name: "main", Sig: &ctypes.Func{Result: ctypes.VoidType}}
	m.AddFunc(f)
	b := f.NewBlock("entry")
	b.Append(&ir.Call{Callee: ext})
	ir.Terminate(b, &ir.Ret{})
	g := New(m)
	if len(g.Callees[f]) != 0 {
		t.Errorf("external callee in graph: %v", g.Callees[f])
	}
}

func TestReachableFrom(t *testing.T) {
	m, fns := buildModule([]string{"main", "a", "b", "dead"}, [][2]int{{0, 1}, {1, 2}})
	g := New(m)
	reach := g.ReachableFrom(fns[0])
	if !reach[fns[0]] || !reach[fns[1]] || !reach[fns[2]] {
		t.Errorf("reachable set incomplete: %v", reach)
	}
	if reach[fns[3]] {
		t.Error("dead function marked reachable")
	}
}
