// Package callgraph builds the (direct-call) call graph of an IR module,
// computes its strongly connected components with Tarjan's algorithm, and
// provides the bottom-up and top-down SCC orders that SafeFlow's
// interprocedural phases walk (paper §3.3).
package callgraph

import (
	"safeflow/internal/ir"
)

// Graph is a call graph over the defined functions of a module.
type Graph struct {
	Module *ir.Module
	// Callees lists, per function, the distinct defined functions it calls.
	Callees map[*ir.Function][]*ir.Function
	// Callers is the reverse relation.
	Callers map[*ir.Function][]*ir.Function

	sccs  []*SCC
	sccOf map[*ir.Function]*SCC
}

// SCC is one strongly connected component of the call graph.
type SCC struct {
	Funcs []*ir.Function
	Index int // topological index: callees have smaller Index than callers
}

// Recursive reports whether the SCC contains a cycle (more than one
// function, or a self-call).
func (s *SCC) Recursive(g *Graph) bool {
	if len(s.Funcs) > 1 {
		return true
	}
	f := s.Funcs[0]
	for _, c := range g.Callees[f] {
		if c == f {
			return true
		}
	}
	return false
}

// New builds the call graph of m.
func New(m *ir.Module) *Graph {
	n := len(m.Funcs)
	g := &Graph{
		Module:  m,
		Callees: make(map[*ir.Function][]*ir.Function, n),
		Callers: make(map[*ir.Function][]*ir.Function, n),
		sccOf:   make(map[*ir.Function]*SCC, n),
	}
	seen := make(map[*ir.Function]bool)
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		clear(seen)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				call, ok := in.(*ir.Call)
				if !ok {
					continue
				}
				callee := call.Callee
				if callee.IsDecl || seen[callee] {
					continue
				}
				seen[callee] = true
				g.Callees[f] = append(g.Callees[f], callee)
				g.Callers[callee] = append(g.Callers[callee], f)
			}
		}
	}
	g.tarjan()
	return g
}

// tarjan computes SCCs; the discovery order of Tarjan's algorithm emits
// components in reverse topological order (callees first), which is
// exactly the bottom-up order.
func (g *Graph) tarjan() {
	index := 0
	n := len(g.Module.Funcs)
	indices := make(map[*ir.Function]int, n)
	low := make(map[*ir.Function]int, n)
	onStack := make(map[*ir.Function]bool, n)
	var stack []*ir.Function

	var strong func(f *ir.Function)
	strong = func(f *ir.Function) {
		indices[f] = index
		low[f] = index
		index++
		stack = append(stack, f)
		onStack[f] = true
		for _, c := range g.Callees[f] {
			if _, seen := indices[c]; !seen {
				strong(c)
				if low[c] < low[f] {
					low[f] = low[c]
				}
			} else if onStack[c] && indices[c] < low[f] {
				low[f] = indices[c]
			}
		}
		if low[f] == indices[f] {
			scc := &SCC{Index: len(g.sccs)}
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc.Funcs = append(scc.Funcs, top)
				g.sccOf[top] = scc
				if top == f {
					break
				}
			}
			g.sccs = append(g.sccs, scc)
		}
	}

	for _, f := range g.Module.Funcs {
		if f.IsDecl {
			continue
		}
		if _, seen := indices[f]; !seen {
			strong(f)
		}
	}
}

// SCCOf returns the component containing f (nil for declarations).
func (g *Graph) SCCOf(f *ir.Function) *SCC { return g.sccOf[f] }

// BottomUp returns SCCs in bottom-up order: every callee SCC appears
// before its callers.
func (g *Graph) BottomUp() []*SCC { return g.sccs }

// TopDown returns SCCs in top-down order: callers before callees.
func (g *Graph) TopDown() []*SCC {
	out := make([]*SCC, len(g.sccs))
	for i, s := range g.sccs {
		out[len(g.sccs)-1-i] = s
	}
	return out
}

// ReachableFrom returns the set of defined functions reachable from the
// named roots (used to scope analysis to the core component's entry).
func (g *Graph) ReachableFrom(roots ...*ir.Function) map[*ir.Function]bool {
	seen := make(map[*ir.Function]bool)
	var visit func(f *ir.Function)
	visit = func(f *ir.Function) {
		if f == nil || f.IsDecl || seen[f] {
			return
		}
		seen[f] = true
		for _, c := range g.Callees[f] {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}
