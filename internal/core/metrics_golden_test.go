package core_test

// Golden test for the versioned "metrics" JSON schema. The snapshot's
// execution-dependent fields (timings, cache temperature, goroutine
// peaks, solve counters) vary run to run, so the golden comparison works
// on the canonicalized form, which keeps only the fields that are
// deterministic functions of the analyzed input. Any schema change —
// field added, renamed, or re-keyed — shows up as a golden diff.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func analyzeIPWithStats(t *testing.T, opts core.Options) *core.Report {
	t.Helper()
	opts.Stats = true
	rep, err := corpus.IP().Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("Options.Stats set but Report.Metrics is nil")
	}
	return rep
}

func TestMetricsGolden(t *testing.T) {
	// Cold, so phase 3 solves: UnitsSolved below checks a live collector.
	rep := analyzeIPWithStats(t, core.Options{Workers: 2, DisableCache: true})
	m := rep.Metrics

	// Volatile fields must be live before canonicalization — a golden
	// test against all-zero metrics would pass with a dead collector.
	if m.WallNS <= 0 {
		t.Errorf("WallNS = %d, want > 0", m.WallNS)
	}
	if m.PeakGoroutines <= 0 {
		t.Errorf("PeakGoroutines = %d, want > 0", m.PeakGoroutines)
	}
	if m.UnitsSolved <= 0 {
		t.Errorf("UnitsSolved = %d, want > 0", m.UnitsSolved)
	}
	for _, p := range m.Phases {
		if p.WallNS < 0 {
			t.Errorf("phase %s: negative wall time %d", p.Name, p.WallNS)
		}
	}

	m.Canonicalize()
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("..", "..", "testdata", "golden", "metrics.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics schema changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestMetricsCanonicalStable pins the Canonicalize contract the
// determinism layer depends on: runs at different worker counts and
// cache temperatures canonicalize to identical bytes.
func TestMetricsCanonicalStable(t *testing.T) {
	var first []byte
	for i, opts := range []core.Options{
		{Workers: 1, DisableCache: true},
		{Workers: 2},
		{Workers: runtime.GOMAXPROCS(0)}, // warm cache by now
	} {
		m := analyzeIPWithStats(t, opts).Metrics
		m.Canonicalize()
		got, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
			continue
		}
		if !bytes.Equal(got, first) {
			t.Errorf("run %d (workers=%d cache=%v): canonical metrics diverged:\n got %s\nwant %s",
				i, opts.Workers, !opts.DisableCache, got, first)
		}
	}
}
