package main

import (
	"bytes"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 12, 11, 13, 14, 15, 9, 8}, 9.25, 11.5, 13.75},
		{[]float64{5, 5}, 5, 5, 5},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestCompare(t *testing.T) {
	def, err := loadDef("testdata/bench.json")
	if err != nil {
		t.Fatal(err)
	}
	const w = "scale-130tu "
	for _, tc := range []struct {
		old, new string
		// verdicts by "workload metric"; per-layer metrics are always "info"
		want     map[string]string
		status   int
		failures int
	}{
		{"old.json", "new_same.json", map[string]string{w + "cold_p50_ms": verdictOK, w + "ops_per_s": verdictOK}, 0, 0},
		{"old.json", "new_within.json", map[string]string{w + "cold_p50_ms": verdictOK, w + "ops_per_s": verdictOK}, 0, 0},
		{"old.json", "new_regressed.json", map[string]string{w + "cold_p50_ms": verdictRegression, w + "ops_per_s": verdictOK}, 1, 0},
		{"old.json", "new_slower_ops.json", map[string]string{w + "cold_p50_ms": verdictOK, w + "ops_per_s": verdictRegression}, 1, 0},
		{"old.json", "new_better.json", map[string]string{w + "cold_p50_ms": verdictBetter, w + "ops_per_s": verdictOK}, 0, 0},
		{"old_noisy.json", "new_regressed.json", map[string]string{w + "cold_p50_ms": verdictUnresolved, w + "ops_per_s": verdictOK}, 0, 0},
		{"old_noisy.json", "new_better.json", map[string]string{w + "cold_p50_ms": verdictUnresolved, w + "ops_per_s": verdictOK}, 0, 0},
		{"old_noisy.json", "new_much_better.json", map[string]string{w + "cold_p50_ms": verdictBetter, w + "ops_per_s": verdictOK}, 0, 0},
		// One failed operation: the run is not correct and the failed share rose.
		{"old.json", "new_failed.json", map[string]string{w + "cold_p50_ms": verdictOK, w + "ops_per_s": verdictOK}, 1, 2},
		// The same failure on both sides: the share did not rise, but the run is still not correct.
		{"new_failed.json", "new_failed.json", map[string]string{w + "cold_p50_ms": verdictOK}, 1, 1},
		// The new set lost its incr-edit workload, as when that workload's run crashes.
		{"old_two.json", "old.json", map[string]string{
			w + "cold_p50_ms":       verdictOK,
			"incr-edit cold_p50_ms": verdictMissing,
			"incr-edit ops_per_s":   verdictMissing,
			"incr-edit vfg.self_ms": "",
		}, 1, 0},
	} {
		name := tc.old + " vs " + tc.new
		old, err := readRunSet("testdata/" + tc.old)
		if err != nil {
			t.Fatal(err)
		}
		new, err := readRunSet("testdata/" + tc.new)
		if err != nil {
			t.Fatal(err)
		}
		rows, failures := compareSets(def, old, new)
		got := map[string]string{}
		for _, r := range rows {
			got[r.workload+" "+r.metric] = r.verdict
		}
		tc.want[w+"vfg.self_ms"] = verdictInfo
		for k, v := range tc.want {
			if got[k] != v {
				t.Errorf("%s: %s verdict %q, want %q", name, k, got[k], v)
			}
		}
		if len(failures) != tc.failures {
			t.Errorf("%s: failures %q, want %d", name, failures, tc.failures)
		}
		var out, errOut bytes.Buffer
		if status := runCompare(def, "testdata/"+tc.old, "testdata/"+tc.new, &out, &errOut); status != tc.status {
			t.Errorf("%s: exit %d, want %d\n%s%s", name, status, tc.status, out.String(), errOut.String())
		}
	}
}

func TestCompareRejectsOtherSchemas(t *testing.T) {
	if _, err := readRunSet("testdata/bench.json"); err == nil {
		t.Fatal("a file without schema version 5 was accepted as a run set")
	}
}
