package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	done := c.Phase("frontend")
	done()
	c.SetTranslationUnits(4)
	c.SetPhase3(1, 2, 3, 4, 5)
	c.ObserveGoroutines()
	if m := c.Finish(); m != nil {
		t.Fatalf("nil collector produced a snapshot: %+v", m)
	}
}

func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector()
	done := c.Phase("frontend")
	time.Sleep(time.Millisecond)
	done()
	done = c.Phase("vfg")
	done()
	c.SetTranslationUnits(4)
	c.SetPhase3(7, 2, 31, 5, 26)
	m := c.Finish()

	if m.SchemaVersion != SchemaVersion {
		t.Errorf("schema version = %d, want %d", m.SchemaVersion, SchemaVersion)
	}
	if len(m.Phases) != 2 || m.Phases[0].Name != "frontend" || m.Phases[1].Name != "vfg" {
		t.Fatalf("phases = %+v", m.Phases)
	}
	if m.Phases[0].WallNS <= 0 || m.WallNS < m.Phases[0].WallNS {
		t.Errorf("timings not monotone: phase=%d total=%d", m.Phases[0].WallNS, m.WallNS)
	}
	if m.TranslationUnits != 4 || m.SCCs != 7 || m.FixpointRounds != 2 ||
		m.UnitsSolved != 31 || m.CacheHits != 5 || m.CacheMisses != 26 {
		t.Errorf("counters = %+v", m)
	}
	if m.PeakGoroutines < 1 {
		t.Errorf("peak goroutines = %d", m.PeakGoroutines)
	}
	// The snapshot is detached from the collector.
	c.Phase("late")()
	if len(m.Phases) != 2 {
		t.Error("snapshot aliases the collector's phase slice")
	}
}

func TestCanonicalizeZeroesVolatileFields(t *testing.T) {
	c := NewCollector()
	c.Phase("frontend")()
	c.SetTranslationUnits(3)
	c.SetPhase3(7, 2, 31, 5, 26)
	c.AddIncludeMemo(129, 1)
	m := c.Finish()
	m.Canonicalize()

	if m.WallNS != 0 || m.Phases[0].WallNS != 0 || m.PeakGoroutines != 0 ||
		m.CacheHits != 0 || m.CacheMisses != 0 || m.FixpointRounds != 0 || m.UnitsSolved != 0 ||
		m.IncludeMemoHits != 0 || m.IncludeMemoMisses != 0 {
		t.Errorf("volatile fields survived canonicalization: %+v", m)
	}
	if m.SchemaVersion != SchemaVersion || m.TranslationUnits != 3 || m.SCCs != 7 ||
		m.Phases[0].Name != "frontend" {
		t.Errorf("structural fields damaged: %+v", m)
	}
	// Nil-safe.
	var nilM *RunMetrics
	nilM.Canonicalize()
}

func TestConcurrentObservations(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.ObserveGoroutines()
			}
		}()
	}
	wg.Wait()
	if m := c.Finish(); m.PeakGoroutines < 2 {
		t.Errorf("peak goroutines = %d, want >= 2 under 8 observers", m.PeakGoroutines)
	}
}

func TestJSONFieldNames(t *testing.T) {
	m := &RunMetrics{SchemaVersion: SchemaVersion, Phases: []PhaseMetrics{{Name: "vfg"}}}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"schema_version", "wall_ns", "phases", "translation_units", "sccs",
		"fixpoint_rounds", "units_solved", "cache_hits", "cache_misses", "peak_goroutines",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("JSON key %q missing (schema break — bump SchemaVersion?)", key)
		}
	}
	if len(raw) != 10 {
		t.Errorf("JSON has %d keys, want 10: %v", len(raw), raw)
	}
}
