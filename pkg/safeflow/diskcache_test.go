package safeflow_test

// Persistent-cache behavior through the public pipeline: a "process
// restart" is simulated by giving the next run a new in-memory Cache
// while runs share one disk cache directory. The restarted run must start warm
// from disk alone, a corrupted disk entry must be evicted and recomputed
// (surfacing in cache_corrupt_evictions), and every report — cold, warm,
// corrupt-healed — must stay byte-identical.

import (
	"bytes"
	"context"
	"os"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

// restart simulates a process restart: opts gets a new, empty Cache, so
// only the disk tier can make the next run warm.
func restart(opts *safeflow.Options) { opts.Cache = safeflow.NewCache() }

func reportBytes(t *testing.T, rep *safeflow.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := safeflow.WriteReportJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDiskCacheWarmAcrossRestart(t *testing.T) {
	dc, err := safeflow.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}
	statsOpts := safeflow.Options{Stats: true, DiskCache: dc, Cache: safeflow.NewCache()}

	cold, err := safeflow.AnalyzeString("figure2", string(src), statsOpts)
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	if cold.Metrics.DiskCacheHits != 0 || cold.Metrics.DiskCacheMisses == 0 {
		t.Fatalf("cold run: disk hits=%d misses=%d, want 0 hits and >0 misses",
			cold.Metrics.DiskCacheHits, cold.Metrics.DiskCacheMisses)
	}

	// "Restart the process": only the disk tier survives.
	restart(&statsOpts)
	warm, err := safeflow.AnalyzeString("figure2", string(src), statsOpts)
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	if warm.Metrics.DiskCacheHits == 0 {
		t.Fatalf("restarted run: disk hits=%d misses=%d, want >0 hits",
			warm.Metrics.DiskCacheHits, warm.Metrics.DiskCacheMisses)
	}
	if warm.Metrics.FrontendCacheHits == 0 {
		t.Fatal("restarted run: parse cache reports no hits despite disk tier")
	}

	// Reports must not depend on cache temperature. Compare a genuinely
	// cold run (fresh store) against a disk-warm one, without the metrics
	// snapshot (cache counters legitimately differ).
	dc2, err := safeflow.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	plain := safeflow.Options{DiskCache: dc2}
	restart(&plain)
	coldPlain, err := safeflow.AnalyzeString("figure2", string(src), plain)
	if err != nil {
		t.Fatal(err)
	}
	restart(&plain)
	warmPlain, err := safeflow.AnalyzeString("figure2", string(src), plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, coldPlain), reportBytes(t, warmPlain)) {
		t.Error("disk-warm report diverged from cold report")
	}
}

func TestDiskCacheCorruptionHeals(t *testing.T) {
	dc, err := safeflow.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}
	opts := safeflow.Options{Stats: true, DiskCache: dc, Cache: safeflow.NewCache()}

	base, err := safeflow.AnalyzeString("figure2", string(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := base
	if dc.Len("parse") == 0 {
		t.Fatal("expected parse entries on disk after cold run")
	}

	// Damage every entry, then "restart".
	nCorrupt := dc.Corrupt("parse", 100)
	if nCorrupt == 0 {
		t.Fatal("Corrupt damaged nothing")
	}
	restart(&opts)
	healed, err := safeflow.AnalyzeString("figure2", string(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Metrics.CacheCorruptEvictions == 0 {
		t.Fatal("corrupted entries were not surfaced as cache_corrupt_evictions")
	}
	if healed.Metrics.DiskCacheHits != 0 {
		t.Fatalf("corrupted run reported %d disk hits", healed.Metrics.DiskCacheHits)
	}
	// Metrics differ (corrupt evictions); compare canonicalized.
	want.Metrics.Canonicalize()
	healed.Metrics.Canonicalize()
	wantJSON, healedJSON := reportBytes(t, want), reportBytes(t, healed)
	if !bytes.Equal(wantJSON, healedJSON) {
		t.Error("report changed after disk-cache corruption")
	}

	// The recomputed run re-stored the entries: the next restart is warm
	// again and the entries verify.
	restart(&opts)
	again, err := safeflow.AnalyzeString("figure2", string(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Metrics.DiskCacheHits == 0 {
		t.Fatal("store did not heal: no disk hits after recompute")
	}
	if again.Metrics.CacheCorruptEvictions != 0 {
		t.Fatalf("healed entries still corrupt: %d evictions", again.Metrics.CacheCorruptEvictions)
	}
}

// TestDiskCacheCorpusDeterminism pins the acceptance bar for every
// corpus system: with the disk cache cold and warm, at workers 1 and 8,
// the JSON report bytes never change.
func TestDiskCacheCorpusDeterminism(t *testing.T) {
	dc, err := safeflow.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range corpus.All() {
		src, err := sys.SourceMap()
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, workers := range []int{1, 8} {
			opts := safeflow.Options{Workers: workers, DiskCache: dc}
			for _, temp := range []string{"cold", "disk-warm"} {
				if temp == "cold" {
					// Cold: empty memory tiers AND a run that has never
					// seen this system's keys... the disk tier fills on
					// the first cold run, so later "cold" runs are
					// disk-warm; that is exactly the matrix we want.
					restart(&opts)
				}
				rep, err := safeflow.AnalyzeContext(context.Background(), sys.Name, src, sys.CFiles, opts)
				if err != nil {
					t.Fatalf("%s workers=%d %s: %v", sys.Name, workers, temp, err)
				}
				got := reportBytes(t, rep)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s: report bytes changed at workers=%d %s", sys.Name, workers, temp)
				}
			}
		}
	}
}
