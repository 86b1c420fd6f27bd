package core_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/frontend"
	"safeflow/internal/guard"
	"safeflow/internal/irgen"
)

// compileIP compiles the IP corpus system once.
func compileIP(t *testing.T) *irgen.Result {
	t.Helper()
	sys := corpus.IP()
	src, err := sys.Sources()
	if err != nil {
		t.Fatal(err)
	}
	res, err := frontend.Compile(context.Background(), sys.Name, src, sys.CFiles, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// internalPhases lists the phases of a report's isolated failures.
func internalPhases(t *testing.T, rep *core.Report) []string {
	t.Helper()
	var out []string
	for _, err := range rep.Internal {
		var ie *guard.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("internal error of type %T", err)
		}
		out = append(out, ie.Phase)
	}
	return out
}

// waitGoroutines waits until the goroutine count is back at baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running (baseline %d)", runtime.NumGoroutine()-baseline, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slowPointsTo returns a hook step for the points-to phase that is still
// running when the other branch gets ahead of it, and the flag it sets
// when it is done.
func slowPointsTo() (func(), *atomic.Bool) {
	var finished atomic.Bool
	return func() {
		time.Sleep(30 * time.Millisecond)
		finished.Store(true)
	}, &finished
}

// A crash in phase 1 fails the system alone, as in a sequential run:
// the points-to branch is joined before the analysis returns and its
// result, a failure included, is discarded.
func TestPhaseDAGShmflowPanicJoinsPointsTo(t *testing.T) {
	res := compileIP(t)
	for _, w := range []int{1, 2, 4} {
		baseline := runtime.NumGoroutine()
		slow, finished := slowPointsTo()
		var ptsRan atomic.Bool
		core.SetPhaseHook(func(phase, _ string) {
			switch phase {
			case "shmflow":
				panic("injected shmflow crash")
			case "pointsto":
				ptsRan.Store(true)
				slow()
				panic("injected pointsto crash")
			}
		})
		rep, err := core.AnalyzeModule(context.Background(), "ip", res, core.Options{Workers: w})
		core.SetPhaseHook(nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := fmt.Sprint(internalPhases(t, rep)); got != "[shmflow]" {
			t.Errorf("workers=%d: internal errors from %s, want [shmflow]", w, got)
		}
		if ptsRan.Load() && !finished.Load() {
			t.Errorf("workers=%d: the analysis returned while points-to was still running", w)
		}
		if w == 1 && ptsRan.Load() {
			t.Error("workers=1: points-to ran although phase 1 failed")
		}
		waitGoroutines(t, baseline)
	}
}

// A cancellation while points-to is still running returns the context's
// error only after the points-to branch has finished.
func TestPhaseDAGCancelJoinsPointsTo(t *testing.T) {
	res := compileIP(t)
	for _, w := range []int{1, 2, 4} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		slow, finished := slowPointsTo()
		core.SetPhaseHook(func(phase, _ string) {
			if phase == "pointsto" {
				cancel()
				slow()
			}
		})
		rep, err := core.AnalyzeModule(ctx, "ip", res, core.Options{Workers: w})
		core.SetPhaseHook(nil)
		cancel()
		if !errors.Is(err, context.Canceled) || rep != nil {
			t.Errorf("workers=%d: got report=%v err=%v, want context.Canceled", w, rep != nil, err)
		}
		if !finished.Load() {
			t.Errorf("workers=%d: the analysis returned while points-to was still running", w)
		}
		waitGoroutines(t, baseline)
	}
}

// Isolated failures of both branches are reported in the sequential
// order — restrict, then points-to — whichever finishes first, and the
// metrics list the phases in the sequential order too.
func TestPhaseDAGInternalOrder(t *testing.T) {
	sys := corpus.IP()
	src, err := sys.Sources()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		for _, ptsFirst := range []bool{true, false} {
			core.SetPhaseHook(func(phase, _ string) {
				switch phase {
				case "restrict":
					if ptsFirst {
						time.Sleep(30 * time.Millisecond)
					}
					panic("injected restrict crash")
				case "pointsto":
					if !ptsFirst {
						time.Sleep(30 * time.Millisecond)
					}
					panic("injected pointsto crash")
				}
			})
			rep, err := core.AnalyzeSources(context.Background(), sys.Name, src, sys.CFiles, core.Options{Workers: w, Stats: true})
			core.SetPhaseHook(nil)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if got := fmt.Sprint(internalPhases(t, rep)); got != "[restrict pointsto]" {
				t.Errorf("workers=%d points-to first=%v: internal errors from %s, want [restrict pointsto]", w, ptsFirst, got)
			}
			var phases []string
			for _, p := range rep.Metrics.Phases {
				phases = append(phases, p.Name)
			}
			if got := fmt.Sprint(phases); got != "[frontend shmflow restrict pointsto]" {
				t.Errorf("workers=%d: metrics phases %s, want [frontend shmflow restrict pointsto]", w, got)
			}
		}
	}
}
