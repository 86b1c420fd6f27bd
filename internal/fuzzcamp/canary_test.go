package fuzzcamp

import (
	"context"
	"strings"
	"testing"
)

// The acceptance-criteria canary: a campaign pointed at an analyzer
// with a deliberately planted soundness bug (static data-flow errors
// at main.c sinks silently dropped) must find the bug, delta-minimize
// the triggering input, and persist a deterministic crasher that no
// longer reproduces under the honest analyzer — i.e. that passes
// TestCrasherRegressions once the bug is "fixed".
func TestCanaryFindsPlantedSoundnessBug(t *testing.T) {
	dir := t.TempDir()
	planted := Executor{MaxSteps: 500_000, Plant: PlantDropMainErrors}
	stats, err := Run(context.Background(), Config{
		Seed:           11,
		CrasherDir:     dir,
		MaxExecs:       40,
		MaxCrashers:    1,
		SeedCount:      3,
		MinimizeBudget: 60,
		Exec:           planted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crashers == 0 {
		t.Fatal("campaign did not find the planted soundness bug")
	}

	crashers, err := LoadCrashers(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(crashers) == 0 {
		t.Fatal("no crasher persisted")
	}
	c := crashers[0]
	if c.Oracle != OracleDynamic && c.Oracle != OracleDegraded {
		t.Errorf("crasher oracle = %q, want a soundness oracle", c.Oracle)
	}
	if !strings.HasPrefix(c.Dir(), c.Oracle) {
		t.Errorf("crasher dir %q does not carry its oracle", c.Dir())
	}

	// The minimized input must still reproduce under the planted
	// executor (the crasher is real and deterministic) ...
	v, err := Replay(context.Background(), c, planted)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Oracle != c.Oracle {
		t.Errorf("minimized crasher does not reproduce under the planted analyzer: %v", v)
	}
	// ... and must pass under the honest analyzer — the state the
	// regression suite replays forever after the bug is fixed.
	v, err = Replay(context.Background(), c, testExec())
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("minimized crasher still violates the honest analyzer: %v", v)
	}

	// Minimization must have actually shrunk the input relative to the
	// smallest seed system it can descend from.
	seedLines := 0
	for _, in := range SeedInputs(11, 3) {
		n := 0
		for _, f := range in.Files() {
			n += strings.Count(in.Sources[f], "\n")
		}
		if seedLines == 0 || n < seedLines {
			seedLines = n
		}
	}
	gotLines := 0
	for _, f := range c.Files() {
		gotLines += strings.Count(c.Sources[f], "\n")
	}
	if gotLines >= seedLines {
		t.Errorf("crasher not minimized: %d lines, smallest seed has %d", gotLines, seedLines)
	}
}

// TestCanaryFindsStaleHit: a campaign whose executor hands the
// cache-temperature oracle's mutated sibling its parent's warm report —
// a cache that hits on a key missing what the mutation changed — must
// find the stale hit, minimize it, and persist a crasher that reproduces
// under the planted executor and holds under the honest one, as
// TestCrasherRegressions replays it.
func TestCanaryFindsStaleHit(t *testing.T) {
	dir := t.TempDir()
	planted := Executor{MaxSteps: 500_000, Plant: PlantStaleHit}
	stats, err := Run(context.Background(), Config{
		Seed:           11,
		CrasherDir:     dir,
		MaxExecs:       40,
		MaxCrashers:    1,
		SeedCount:      3,
		MinimizeBudget: 60,
		Exec:           planted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crashers == 0 {
		t.Fatal("campaign did not find the planted stale hit")
	}
	crashers, err := LoadCrashers(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(crashers) == 0 {
		t.Fatal("no crasher persisted")
	}
	c := crashers[0]
	if c.Oracle != OracleCacheTemperature {
		t.Errorf("crasher oracle = %q, want %q", c.Oracle, OracleCacheTemperature)
	}
	if v, err := Replay(context.Background(), c, planted); err != nil {
		t.Fatal(err)
	} else if v == nil || v.Oracle != c.Oracle {
		t.Errorf("minimized crasher does not reproduce under the planted executor: %v", v)
	}
	if v, err := Replay(context.Background(), c, testExec()); err != nil {
		t.Fatal(err)
	} else if v != nil {
		t.Errorf("minimized crasher violates the honest executor: %v", v)
	}
	seedLines := 0
	for _, in := range SeedInputs(11, 3) {
		n := 0
		for _, f := range in.Files() {
			n += strings.Count(in.Sources[f], "\n")
		}
		if seedLines == 0 || n < seedLines {
			seedLines = n
		}
	}
	gotLines := 0
	for _, f := range c.Files() {
		gotLines += strings.Count(c.Sources[f], "\n")
	}
	if gotLines >= seedLines {
		t.Errorf("crasher not minimized: %d lines, smallest seed has %d", gotLines, seedLines)
	}
}
