package safeflow_test

// Stress layer: a batch of seeded pseudo-random systems (internal/corpus
// generator) pushed through AnalyzeAll with mixed per-job options. Run
// under -race in CI, this exercises the frontend worker pools, the
// phase-3 SCC scheduler, the store of phase-3 states, and the batch fan-out all at
// once; the assertions check fault-free completion and batch-vs-solo
// agreement, not specific diagnostics.

import (
	"context"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

const stressSystems = 50

func stressJobs(tb testing.TB, n int) []safeflow.Job {
	tb.Helper()
	jobs := make([]safeflow.Job, n)
	for i := range jobs {
		g := corpus.Generate(int64(i), corpus.GenConfig{
			Regions:  1 + i%4,
			Monitors: 1 + i%3,
			Stages:   2 + i%5,
			Depth:    1 + i%3,
		})
		var own *safeflow.Cache
		if i%4 == 3 {
			own = safeflow.NewCache() // a quarter run with a cache of their own
		}
		jobs[i] = safeflow.Job{
			Name:    g.Name,
			Sources: g.Sources,
			CFiles:  g.CFiles,
			Options: safeflow.Options{
				Workers: 1 + i%3,  // mix sequential and parallel pipelines
				Stats:   i%2 == 0, // half the jobs collect metrics
				Cache:   own,
			},
		}
	}
	return jobs
}

func TestStressPipeline(t *testing.T) {
	jobs := stressJobs(t, stressSystems)
	results := safeflow.AnalyzeAll(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d (%s): %v", i, res.Name, res.Err)
		}
		rep := res.Report
		if len(rep.Internal) > 0 {
			t.Fatalf("job %d (%s): internal errors: %v", i, res.Name, rep.Internal)
		}
		if len(rep.AnnotationErrors) > 0 {
			t.Fatalf("job %d (%s): annotation errors: %v", i, res.Name, rep.AnnotationErrors)
		}
		if jobs[i].Options.Stats && rep.Metrics == nil {
			t.Errorf("job %d (%s): stats requested but no metrics", i, res.Name)
		}
		if !jobs[i].Options.Stats && rep.Metrics != nil {
			t.Errorf("job %d (%s): metrics collected without stats", i, res.Name)
		}
	}

	// Batch results must agree with solo runs (spot-check a sample: the
	// full cross-product is the determinism test's job).
	for i := 0; i < len(jobs); i += 17 {
		solo, err := safeflow.AnalyzeContext(context.Background(), jobs[i].Name, jobs[i].Sources, jobs[i].CFiles, jobs[i].Options)
		if err != nil {
			t.Fatalf("solo %s: %v", jobs[i].Name, err)
		}
		got, want := results[i].Report, solo
		if len(got.Warnings) != len(want.Warnings) || got.TotalErrors() != want.TotalErrors() {
			t.Errorf("%s: batch (W=%d E=%d) disagrees with solo (W=%d E=%d)",
				jobs[i].Name, len(got.Warnings), got.TotalErrors(),
				len(want.Warnings), want.TotalErrors())
		}
	}
}
