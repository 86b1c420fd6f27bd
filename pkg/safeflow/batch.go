// Batch analysis: fan whole-system analyses out over a bounded worker
// pool. Each job is an independent pipeline run (its own module, points-to
// and value-flow state), so systems analyze concurrently without sharing
// anything but the process-global caches; per-job Options.Workers
// additionally parallelizes inside each pipeline.
//
// Jobs are fault-isolated: a panic anywhere in one job's pipeline
// becomes that job's InternalError result while the rest of the batch
// completes. AnalyzeAllContext additionally honors cancellation — jobs
// not yet started are failed with ctx.Err() immediately, running jobs
// stop at their next unit boundary, and the pool drains with no leaked
// goroutines.

package safeflow

import (
	"context"
	"runtime"
	"sync"

	"safeflow/internal/guard"
)

// Job names one system for AnalyzeAll: the same inputs Analyze takes.
type Job struct {
	Name    string
	Sources map[string]string
	CFiles  []string
	Options Options
}

// Result is one job's outcome. Results are returned in job order, so
// batch output is as deterministic as the individual reports.
type Result struct {
	Name   string
	Report *Report
	Err    error
}

// AnalyzeAll analyzes the jobs concurrently, at most runtime.GOMAXPROCS
// at a time, and returns one Result per job in input order.
func AnalyzeAll(jobs []Job) []Result {
	return AnalyzeAllContext(context.Background(), jobs)
}

// AnalyzeAllContext is AnalyzeAll with deadline/cancellation support.
// After cancellation every job still gets a Result: completed jobs keep
// their reports, unstarted and interrupted jobs carry ctx.Err().
func AnalyzeAllContext(ctx context.Context, jobs []Job) []Result {
	out := make([]Result, len(jobs))
	runJob := func(i int) {
		j := jobs[i]
		if err := ctx.Err(); err != nil {
			out[i] = Result{Name: j.Name, Err: err}
			return
		}
		// The pipeline phases are panic-isolated internally; this outer
		// guard catches crashes in the batch machinery itself so a worker
		// goroutine can never take the process down.
		var rep *Report
		err := guard.Run("batch", j.Name, func() error {
			var aerr error
			rep, aerr = AnalyzeContext(ctx, j.Name, j.Sources, j.CFiles, j.Options)
			return aerr
		})
		out[i] = Result{Name: j.Name, Report: rep, Err: err}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			runJob(i)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runJob(i)
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	// Jobs the feeder never handed out have zero-valued results; mark
	// them cancelled so every Result is populated.
	if err := ctx.Err(); err != nil {
		for i := range out {
			if out[i].Report == nil && out[i].Err == nil {
				out[i] = Result{Name: jobs[i].Name, Err: err}
			}
		}
	}
	return out
}
