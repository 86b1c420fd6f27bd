package faultinject

import (
	"context"
	"testing"

	"safeflow/internal/diskcache"
)

// The self-healing invariant, end to end: damaging persistent entries
// between runs must surface in cache_corrupt_evictions and must not
// change one byte of the report.
func TestDiskCorruptionInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		store, err := diskcache.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunDisk(context.Background(), DiskScenario{
			Seed: seed, Parse: 2,
		}, store)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Corrupted == 0 {
			t.Fatalf("seed %d: injector damaged nothing", seed)
		}
		if res.Healed.Metrics.CacheCorruptEvictions == 0 {
			t.Errorf("seed %d: corruption not surfaced in cache_corrupt_evictions", seed)
		}
		if res.Cold.Metrics.CacheCorruptEvictions != 0 {
			t.Errorf("seed %d: cold run saw %d corrupt evictions",
				seed, res.Cold.Metrics.CacheCorruptEvictions)
		}
		if res.ColdJSON != res.HealedJSON {
			t.Errorf("seed %d: report changed after disk corruption", seed)
		}
		if res.Healed.Degraded != res.Cold.Degraded {
			t.Errorf("seed %d: degraded flag flipped across corruption", seed)
		}
	}
}

// After the healed run re-stored every damaged entry, a further restart
// must be fully warm: disk hits, no corrupt evictions.
func TestDiskCorruptionHealsStore(t *testing.T) {
	store, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunDisk(context.Background(), DiskScenario{
		Seed: 3, Parse: 100,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	if first.Healed.Metrics.DiskCacheHits != 0 {
		t.Fatalf("fully corrupted store still served %d hits",
			first.Healed.Metrics.DiskCacheHits)
	}

	// Same scenario, same store, no new corruption: the "cold" run of
	// this second invocation reads the healed store.
	second, err := RunDisk(context.Background(), DiskScenario{Seed: 3}, store)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cold.Metrics.DiskCacheHits == 0 {
		t.Error("store did not heal: no disk hits after recompute")
	}
	if second.Cold.Metrics.CacheCorruptEvictions != 0 {
		t.Errorf("healed store still reports %d corrupt evictions",
			second.Cold.Metrics.CacheCorruptEvictions)
	}
	if second.ColdJSON != first.ColdJSON {
		t.Error("report drifted across store generations")
	}
}
