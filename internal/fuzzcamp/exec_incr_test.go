package fuzzcamp

import (
	"context"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
)

// TestIncrementalOracleHoldsOnGenerated runs the incremental-equivalence
// oracle directly on generator-derived inputs: the session's patched
// reports must match from-scratch analysis byte for byte.
func TestIncrementalOracleHoldsOnGenerated(t *testing.T) {
	exec := testExec()
	for _, seed := range []int64{3, 17} {
		g := corpus.Generate(seed, corpus.GenConfig{})
		in := Input{Name: g.Name, Sources: g.Sources, CFiles: g.CFiles}
		v, err := exec.checkIncremental(context.Background(), in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v != nil {
			t.Errorf("seed %d: incremental oracle violated: %v", seed, v)
		}
	}
}

// TestIncrementalOracleSkipsEmptyInput: an input with no translation
// units has nothing to patch; the oracle must pass, not panic.
func TestIncrementalOracleSkipsEmptyInput(t *testing.T) {
	exec := testExec()
	v, err := exec.checkIncremental(context.Background(), Input{Name: "empty"})
	if err != nil || v != nil {
		t.Fatalf("empty input: violation=%v err=%v, want nil/nil", v, err)
	}
}

// TestCacheTemperatureOracleHolds runs the cache-temperature oracle on
// generated inputs through one Cache, as a campaign does: cold, filling
// and hitting runs render alike, and so does each input's sibling.
func TestCacheTemperatureOracleHolds(t *testing.T) {
	exec := testExec()
	exec.Cache = core.NewCache()
	for _, in := range SeedInputs(3, 4) {
		base, err := analyze(context.Background(), in, in.Sources, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		cold, err := render(base)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			v, err := exec.checkCacheTemperature(context.Background(), in, cold)
			if err != nil {
				t.Fatalf("%s: %v", in.Name, err)
			}
			if v != nil {
				t.Errorf("%s, round %d: cache-temperature oracle violated: %v", in.Name, round, v)
			}
		}
	}
}
