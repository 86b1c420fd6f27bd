package safeflow_test

// Cancellation contract tests: a cancelled context stops the pipeline at
// the next unit boundary (translation unit in the frontend, SCC wave in
// phase 3), returns ctx.Err() promptly, and leaves no goroutines behind.
// The phase hook (core.SetPhaseHook) triggers cancellation from inside a
// chosen phase's isolation scope, so each test cancels at a precise point
// in a real run rather than racing a timer against the analysis.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

// cancelAtPhase runs one generated system with a hook that cancels the
// context when the named phase starts, and returns the analysis error.
func cancelAtPhase(t *testing.T, phase string, opts safeflow.Options) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	core.SetPhaseHook(func(p, _ string) {
		if p == phase {
			cancel()
		}
	})
	defer core.SetPhaseHook(nil)

	g := corpus.Generate(7, corpus.GenConfig{Regions: 3, Monitors: 3, Stages: 5})
	type outcome struct {
		rep *safeflow.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := safeflow.AnalyzeContext(ctx, g.Name, g.Sources, g.CFiles, opts)
		done <- outcome{rep, err}
	}()
	select {
	case o := <-done:
		if o.rep != nil {
			t.Errorf("cancel at %s: got a report alongside err=%v", phase, o.err)
		}
		return o.err
	case <-time.After(5 * time.Second):
		t.Fatalf("cancel at %s: analysis did not return within 5s", phase)
		return nil
	}
}

func TestCancelMidFrontend(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := cancelAtPhase(t, "frontend", safeflow.Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

func TestCancelMidFixpoint(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := cancelAtPhase(t, "vfg", safeflow.Options{Workers: workers, Cache: safeflow.NewCache()})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

// TestCancelBatchNoLeak cancels a 50-system batch mid-flight and checks
// the ISSUE contract: AnalyzeAllContext returns within a second, every
// job has a populated Result (a finished report or ctx.Err()), and the
// goroutine count settles back to its pre-batch baseline.
func TestCancelBatchNoLeak(t *testing.T) {
	jobs := stressJobs(t, stressSystems)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []safeflow.Result, 1)
	go func() { done <- safeflow.AnalyzeAllContext(ctx, jobs) }()

	time.Sleep(20 * time.Millisecond)
	cancel()

	var results []safeflow.Result
	select {
	case results = <-done:
	case <-time.After(1 * time.Second):
		t.Fatal("cancelled batch did not return within 1s")
	}

	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	var finished, cancelled int
	for i, res := range results {
		switch {
		case res.Err == nil && res.Report != nil:
			finished++
		case errors.Is(res.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("job %d (%s): unexpected outcome rep=%v err=%v",
				i, res.Name, res.Report != nil, res.Err)
		}
	}
	t.Logf("batch cancelled: %d finished, %d cancelled", finished, cancelled)

	// Goroutines from the pool and the pipelines must all have exited;
	// allow a short settle window for workers observing the cancel.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
