package main

import (
	"context"
	"fmt"
	"testing"

	"safeflow/pkg/safeflow"
)

// TestGen50TUSplitsClean checks the 50-TU split system analyzes to the
// same report as the unsplit generated system would, with one stage per
// translation unit.
func TestGen50TUSplitsClean(t *testing.T) {
	name, sources, cFiles := gen50TU()
	if len(cFiles) != 50 {
		t.Fatalf("gen50TU produced %d translation units, want 50", len(cFiles))
	}
	resetBenchCaches()
	rep, err := safeflow.AnalyzeContext(context.Background(), name, sources, cFiles,
		safeflow.Options{DisableCache: true, DisableParseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || len(rep.Internal) > 0 {
		t.Fatalf("50-TU system degraded=%v internal=%v", rep.Degraded, rep.Internal)
	}
}

// BenchmarkUpdate50TU times one single-function incremental update on
// the 50-TU system — the latency the incremental section of the -json
// record reports as p50/p95.
func BenchmarkUpdate50TU(b *testing.B) {
	name, sources, cFiles := gen50TU()
	resetBenchCaches()
	sess, _, err := safeflow.OpenContext(context.Background(), name, sources, cFiles,
		safeflow.Options{DisableCache: true, DisableParseCache: true})
	if err != nil {
		b.Fatal(err)
	}
	target := cFiles[0]
	cur := sources[target]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur += fmt.Sprintf("\n/* touch %d */\n", i)
		_, stats, err := sess.UpdateContext(context.Background(), map[string]string{target: cur})
		if err != nil {
			b.Fatal(err)
		}
		if !stats.Incremental {
			b.Fatal("update fell back to from-scratch analysis")
		}
	}
}
