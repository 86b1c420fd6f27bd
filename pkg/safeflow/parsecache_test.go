package safeflow_test

// Cross-run cache reuse through the public pipeline: a second analysis
// of an unchanged corpus through the same Cache must report frontend
// cache hits in its metrics snapshot, and the warm report must stay
// byte-identical to the cold one (the cached AST is shared, never
// re-derived differently). A nil Options.Cache shares the process cache.

import (
	"bytes"
	"os"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

func TestParseCacheCrossRun(t *testing.T) {
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}
	opts := safeflow.Options{Stats: true, Cache: safeflow.NewCache()}

	cold, err := safeflow.AnalyzeString("figure2", string(src), opts)
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	if cold.Metrics == nil {
		t.Fatal("no metrics snapshot")
	}
	if cold.Metrics.FrontendCacheHits != 0 || cold.Metrics.FrontendCacheMisses == 0 {
		t.Fatalf("cold run: frontend hits=%d misses=%d, want 0 hits and >0 misses",
			cold.Metrics.FrontendCacheHits, cold.Metrics.FrontendCacheMisses)
	}

	warm, err := safeflow.AnalyzeString("figure2", string(src), opts)
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	if warm.Metrics.FrontendCacheHits == 0 || warm.Metrics.FrontendCacheMisses != 0 {
		t.Fatalf("warm run: frontend hits=%d misses=%d, want >0 hits and 0 misses",
			warm.Metrics.FrontendCacheHits, warm.Metrics.FrontendCacheMisses)
	}

	var coldBuf, warmBuf bytes.Buffer
	safeflow.WriteReport(&coldBuf, cold)
	safeflow.WriteReport(&warmBuf, warm)
	if !bytes.Equal(coldBuf.Bytes(), warmBuf.Bytes()) {
		t.Errorf("warm report diverged from cold report:\ncold:\n%s\nwarm:\n%s",
			coldBuf.String(), warmBuf.String())
	}

	// Another Cache shares nothing with the first, and changes nothing.
	opts.Cache = safeflow.NewCache()
	other, err := safeflow.AnalyzeString("figure2", string(src), opts)
	if err != nil {
		t.Fatalf("second-cache analyze: %v", err)
	}
	if other.Metrics.FrontendCacheHits != 0 {
		t.Fatalf("a new cache hit %d parse entries", other.Metrics.FrontendCacheHits)
	}
	var otherBuf bytes.Buffer
	safeflow.WriteReport(&otherBuf, other)
	if !bytes.Equal(coldBuf.Bytes(), otherBuf.Bytes()) {
		t.Error("a second cache changed the report")
	}
}

// TestNilCacheUsesProcessCache: two identical analyses with a nil
// Options.Cache share the process cache, so the second replays every
// phase-3 unit and parses nothing.
func TestNilCacheUsesProcessCache(t *testing.T) {
	g := corpus.Generate(23, corpus.GenConfig{Regions: 2, Monitors: 2, Stages: 3})
	// The name is unique to this test, so no other analysis in the
	// process shares its slot.
	name := g.Name + "-process-cache"
	var reps [2]*safeflow.Report
	for i := range reps {
		rep, err := safeflow.Analyze(name, g.Sources, g.CFiles, safeflow.Options{Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	first, second := reps[0].Metrics, reps[1].Metrics
	if second.CacheMisses != 0 || second.CacheHits != first.CacheHits+first.CacheMisses || second.CacheHits == 0 {
		t.Errorf("second analysis: %d units replayed, %d solved; want all %d replayed",
			second.CacheHits, second.CacheMisses, first.CacheHits+first.CacheMisses)
	}
	if second.FrontendCacheMisses != 0 || second.FrontendCacheHits != len(g.CFiles) {
		t.Errorf("second analysis: frontend hits=%d misses=%d, want %d/0",
			second.FrontendCacheHits, second.FrontendCacheMisses, len(g.CFiles))
	}
}
