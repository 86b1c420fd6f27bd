package corpus

import (
	"context"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/cpp"
)

// Determinism of Generate (repeated calls, GOMAXPROCS independence,
// and the pinned cross-process fingerprint) is covered by
// TestGenerateDeterministic in determinism_test.go.

func TestGeneratedSystemsAnalyze(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := Generate(seed, GenConfig{
			Regions:  1 + int(seed)%4,
			Monitors: 1 + int(seed)%3,
			Stages:   2 + int(seed)%4,
		})
		rep, err := core.AnalyzeSources(context.Background(), g.Name, cpp.MapSource(g.Sources), g.CFiles, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: generated system does not analyze: %v", seed, err)
		}
		if len(rep.Internal) > 0 {
			t.Fatalf("seed %d: internal errors: %v", seed, rep.Internal)
		}
		if len(rep.AnnotationErrors) > 0 {
			t.Fatalf("seed %d: annotation errors: %v", seed, rep.AnnotationErrors)
		}
		// Internal consistency: every error dependency's sources must be
		// among the reported warnings.
		warnSet := map[string]bool{}
		for _, w := range rep.Warnings {
			warnSet[w.Pos.String()] = true
		}
		for _, e := range append(rep.ErrorsData, rep.ErrorsControlOnly...) {
			for _, s := range e.SortedSources() {
				if !warnSet[s.Pos.String()] {
					t.Errorf("seed %d: error cites unreported source %s", seed, s)
				}
			}
		}
	}
}
