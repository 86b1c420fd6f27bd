// Parallel driver for the summary-based analysis: units are grouped by
// callgraph SCC and solved bottom-up over the SCC DAG, so components with
// no dependency between them run concurrently. The converged result is the
// unique least fixpoint of the monotone transfer functions, so it is
// independent of the schedule; combined with the total sort orders in
// finish(), reports are byte-identical at every worker count.
//
// Rounds are demand-driven. A unit's solve is a function of three inputs
// only: its own body, the summaries of the callee units it consults, and
// the global memory objects its loads read. The first round solves every
// unit; a later round solves only the units one of whose inputs changed
// after their latest solve began (see markStale). A unit's own writes
// never make it stale: they are visible to it through its local overlay,
// which the unit's inner rounds iterate to a fixpoint.

package vfg

import (
	"runtime"
	"sync"

	"safeflow/internal/callgraph"
	"safeflow/internal/guard"
	"safeflow/internal/ir"
	"safeflow/internal/pointsto"
)

// workerCount resolves the effective worker-pool size.
func workerCount(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// runScheduled is the driver for the summary-sharing (non-exponential)
// mode: precompute the (function, context) unit closure, then run rounds
// of bottom-up SCC waves until no unit is stale. Later rounds exist
// because taint also flows top-down through the global memory store: a
// caller's store feeds a load in a callee that was solved before it.
func (a *analysis) runScheduled(workers int) {
	a.seedRoots()
	a.expandUnits(0)
	for round := 0; round < maxRounds; round++ {
		if a.ctxDone() {
			return
		}
		a.rounds++
		n := len(a.unitList)
		a.solveWaves(workers)
		if len(a.unitList) > n {
			// New units can only appear here through the summary-key
			// fallback paths; re-close over them to be safe.
			a.expandUnits(n)
		}
		if !a.markStale() {
			break
		}
	}
}

// objChange logs the changes to one global memory object since the last
// staleness check: the latest change with its writer, and the latest
// change by any other writer. That is enough to tell whether a unit other
// than u changed the object after u's solve began.
type objChange struct {
	seq, otherSeq uint64
	writer        *unit
}

func (c *objChange) add(seq uint64, w *unit) {
	if w != c.writer {
		c.otherSeq, c.writer = c.seq, w
	}
	c.seq = seq
}

func (c objChange) changedAfter(u *unit, start uint64) bool {
	if c.writer != u {
		return c.seq > start
	}
	return c.otherSeq > start
}

// logChange records that w changed a cell of o. The sequence number is
// taken after the cell changed, so a solve that started later (a higher
// start) reads the new value; taking it under logMu keeps the log in
// sequence order.
func (a *analysis) logChange(o *pointsto.Object, w *unit) {
	a.logMu.Lock()
	c := a.memLog[o]
	c.add(a.seq.Add(1), w)
	a.memLog[o] = c
	a.logMu.Unlock()
}

// needsSolve reports whether u is stale: never solved, invalidated by a
// memory change (memStale), or consulting a callee unit whose summary
// changed after u's latest solve began. Callee units in other SCCs have
// finished this wave before u's task runs, so their sumSeq is final.
func (a *analysis) needsSolve(u *unit) bool {
	if u.start == 0 || u.memStale {
		return true
	}
	for _, cu := range u.calleeUnits {
		if cu.sumSeq > u.start {
			return true
		}
	}
	return false
}

// markStale runs single-threaded between waves: it marks every unit that
// read an object another unit changed after the reader's latest solve
// began, clears the change log, and reports whether any unit is stale.
// Clearing is sound because every logged change was compared against
// every unit's current start; a later solve only raises the start.
func (a *analysis) markStale() bool {
	stale := false
	for _, u := range a.unitList {
		if u.replayed {
			continue
		}
		if len(a.memLog) > 0 && u.start != 0 && !u.memStale {
			for _, o := range a.fnDataOf(u.fn).reads {
				if c, ok := a.memLog[o]; ok && c.changedAfter(u, u.start) {
					u.memStale = true
					break
				}
			}
		}
		if a.needsSolve(u) {
			stale = true
		}
	}
	clear(a.memLog)
	return stale
}

// solveSCCSafe isolates one SCC solve: a panic inside the component's
// transfer functions is recorded as an internal error for the report
// while every other component still completes.
func (a *analysis) solveSCCSafe(t *sccUnits) {
	unitName := ""
	if len(t.scc.Funcs) > 0 {
		unitName = t.scc.Funcs[0].Name
	}
	if err := guard.Run("vfg", unitName, func() error {
		a.solveSCC(t)
		return nil
	}); err != nil {
		a.intMu.Lock()
		a.internal = append(a.internal, err)
		a.intMu.Unlock()
	}
}

// expandUnits computes the unit closure starting at unitList[from]: a unit
// (fn, ctx) induces a unit (callee, active) for every defined, non-init
// callee of fn, because contexts depend only on the call structure and the
// assume(core(...)) facts — not on taint values. The list grows while we
// iterate, so this is a breadth-first closure. Each binding is memoized in
// the caller's calleeUnits, so a unit's callee units are known before its
// first solve. Single-threaded (runs between waves); the per-unit work is
// trivial next to solving.
func (a *analysis) expandUnits(from int) {
	for i := from; i < len(a.unitList); i++ {
		u := a.unitList[i]
		for _, callee := range a.cfg.CG.Callees[u.fn] {
			if callee.IsDecl || a.cfg.SF.InitFuncs[callee] {
				continue
			}
			if u.calleeUnits == nil {
				u.calleeUnits = make(map[*ir.Function]*unit)
			}
			u.calleeUnits[callee] = a.getUnit(callee, u.active, "")
		}
	}
}

// sccUnits is one schedulable task: the units of one callgraph SCC.
type sccUnits struct {
	scc       *callgraph.SCC
	units     []*unit
	recursive bool
}

// solveWaves solves every stale unit (to its local fixpoint),
// scheduling SCCs bottom-up: an SCC starts only after all SCCs it calls
// into have finished this wave, and independent SCCs run concurrently on
// a pool of `workers` goroutines. Every SCC with unreplayed units is
// visited, because whether a unit is stale can depend on a callee solved
// earlier in the same wave.
func (a *analysis) solveWaves(workers int) {
	// Group units by SCC, preserving creation order within each group.
	bySCC := make(map[*callgraph.SCC]*sccUnits)
	var tasks []*sccUnits
	for _, u := range a.unitList {
		if u.replayed {
			// Installed from a previous run's record (incremental mode):
			// the summary is final, nothing to solve.
			continue
		}
		s := a.cfg.CG.SCCOf(u.fn)
		t := bySCC[s]
		if t == nil {
			t = &sccUnits{scc: s, recursive: s.Recursive(a.cfg.CG)}
			bySCC[s] = t
			tasks = append(tasks, t)
		}
		t.units = append(t.units, u)
	}
	// Bottom-up order: callee SCCs have smaller topological indices.
	sortTasks(tasks)

	if workers <= 1 || len(tasks) <= 1 {
		for _, t := range tasks {
			if a.ctxDone() {
				return
			}
			a.solveSCCSafe(t)
		}
		return
	}

	// DAG edges between SCCs that actually have units this wave.
	indeg := make(map[*sccUnits]int, len(tasks))
	dependents := make(map[*sccUnits][]*sccUnits)
	for _, t := range tasks {
		for _, f := range t.scc.Funcs {
			for _, c := range a.cfg.CG.Callees[f] {
				ct := bySCC[a.cfg.CG.SCCOf(c)]
				if ct == nil || ct == t {
					continue
				}
				dup := false
				for _, d := range dependents[ct] {
					if d == t {
						dup = true
						break
					}
				}
				if !dup {
					dependents[ct] = append(dependents[ct], t)
					indeg[t]++
				}
			}
		}
	}

	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, workers)
	)
	var launch func(t *sccUnits)
	launch = func(t *sccUnits) {
		defer wg.Done()
		sem <- struct{}{}
		// On cancellation the task is skipped, but its dependents are
		// still released below so the wave drains instead of deadlocking.
		if !a.ctxDone() {
			a.cfg.Metrics.ObserveGoroutines()
			a.solveSCCSafe(t)
		}
		<-sem
		mu.Lock()
		for _, d := range dependents[t] {
			indeg[d]--
			if indeg[d] == 0 {
				wg.Add(1)
				go launch(d)
			}
		}
		mu.Unlock()
	}
	mu.Lock()
	for _, t := range tasks {
		if indeg[t] == 0 {
			wg.Add(1)
			go launch(t)
		}
	}
	mu.Unlock()
	wg.Wait()
}

// solveSCC solves the stale units of one SCC. Non-recursive components
// need a single pass (the function cannot call itself, so its context
// units are mutually independent), and there a cone unit of an
// incremental run may be cut off instead of solved; recursive components
// iterate until no unit is stale, i.e. to a local fixpoint over their
// mutually-dependent summaries.
func (a *analysis) solveSCC(t *sccUnits) {
	for iter := 0; iter < maxRounds; iter++ {
		solved := false
		for _, u := range t.units {
			if !a.needsSolve(u) || (!t.recursive && a.tryCutoff(u)) {
				continue
			}
			a.solveUnit(u)
			if a.prev != nil {
				a.noteKept(u)
			}
			solved = true
		}
		if !t.recursive || !solved {
			return
		}
	}
}

func sortTasks(tasks []*sccUnits) {
	// Insertion sort on topological index: task counts are small (one per
	// SCC with live units) and the input is nearly sorted already.
	for i := 1; i < len(tasks); i++ {
		for j := i; j > 0 && tasks[j-1].scc.Index > tasks[j].scc.Index; j-- {
			tasks[j-1], tasks[j] = tasks[j], tasks[j-1]
		}
	}
}
