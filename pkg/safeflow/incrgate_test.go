package safeflow_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
)

// TestIncrementalBenchmarkGate is the incremental-update performance
// gate: it streams ten single-function edits through a session on a
// moderate generated system, alternating a pure-comment touch
// (invalidates nothing) and a new probe function (invalidates one
// function), both appended to the first translation unit. No update may
// fall back to a from-scratch analysis, and the p95 update must be
// cheaper than a cold end-to-end analysis of the final sources. Both the
// session and the cold run have no cache.
func TestIncrementalBenchmarkGate(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate: the race detector distorts latencies")
	}
	const updates = 10
	g := corpus.Generate(7, corpus.GenConfig{Regions: 3, Monitors: 4, Stages: 8})
	ctx := context.Background()
	sess, _, err := core.OpenSession(ctx, g.Name, g.Sources, g.CFiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	cur := make(map[string]string, len(g.Sources))
	for k, v := range g.Sources {
		cur[k] = v
	}
	target := g.CFiles[0]
	lat := make([]time.Duration, 0, updates)
	fallbacks := 0
	for i := 0; i < updates; i++ {
		// Collect between edits, as the watch loop does while idle, so
		// each sample times the update itself rather than assist debt
		// left over from the previous one.
		runtime.GC()
		if i%2 == 0 {
			cur[target] += fmt.Sprintf("\n/* bench touch %d */\n", i)
		} else {
			cur[target] += fmt.Sprintf("\ndouble __benchProbe%d(double x)\n{\n    return x + %d.0;\n}\n", i, i)
		}
		t0 := time.Now()
		_, stats, err := sess.Update(ctx, map[string]string{target: cur[target]})
		lat = append(lat, time.Since(t0))
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if !stats.Incremental {
			fallbacks++
		}
	}

	t0 := time.Now()
	if _, err := core.AnalyzeSources(ctx, g.Name, cpp.MapSource(cur), g.CFiles, core.Options{}); err != nil {
		t.Fatalf("cold baseline: %v", err)
	}
	cold := time.Since(t0)

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }
	p50, p95 := pct(0.50), pct(0.95)
	t.Logf("%s (%d TUs): cold=%v p50=%v p95=%v fallbacks=%d", g.Name, len(g.CFiles), cold, p50, p95, fallbacks)
	if fallbacks > 0 {
		t.Errorf("%d updates fell back to from-scratch analysis", fallbacks)
	}
	if p95 >= cold {
		t.Errorf("p95 update (%v) is not cheaper than a cold run (%v)", p95, cold)
	}
}
