package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"safeflow/internal/fuzzcamp"
)

// buildSffuzz compiles the binary once per test run.
func buildSffuzz(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sffuzz")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A short honest campaign exits 0, prints coverage stats, and leaves a
// persistent corpus behind.
func TestCLISmokeCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildSffuzz(t)
	dir := t.TempDir()
	cmd := exec.Command(bin,
		"-seed", "5", "-execs", "8", "-seedcount", "2", "-notable1",
		"-corpus", filepath.Join(dir, "campaign"),
		"-crashers", filepath.Join(dir, "crashers"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sffuzz: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "no oracle violations") {
		t.Errorf("unexpected output:\n%s", out)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "campaign", "corpus", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Errorf("no persisted corpus entries (err=%v)", err)
	}
}

// A planted campaign exits 2, persists a crasher, and -replay agrees:
// reproduces under the planted oracle, passes under the honest one.
func TestCLICanaryAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildSffuzz(t)
	dir := t.TempDir()
	crashers := filepath.Join(dir, "crashers")
	cmd := exec.Command(bin,
		"-seed", "11", "-execs", "40", "-seedcount", "2", "-notable1",
		"-maxcrashers", "1", "-minbudget", "40",
		"-plant", "drop-main-errors",
		"-corpus", filepath.Join(dir, "campaign"), "-crashers", crashers)
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("planted campaign: err=%v (want exit 2)\n%s", err, out)
	}
	found, err := fuzzcamp.LoadCrashers(crashers)
	if err != nil || len(found) == 0 {
		t.Fatalf("no crasher persisted (err=%v)\n%s", err, out)
	}
	cdir := filepath.Join(crashers, found[0].Dir())
	if _, err := os.Stat(filepath.Join(cdir, "crasher.json")); err != nil {
		t.Fatal(err)
	}

	replay := exec.Command(bin, "-replay", cdir, "-plant", "drop-main-errors")
	out, err = replay.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("planted replay: err=%v (want exit 2)\n%s", err, out)
	}
	replay = exec.Command(bin, "-replay", cdir)
	out, err = replay.CombinedOutput()
	if err != nil {
		t.Errorf("honest replay: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "passes") {
		t.Errorf("honest replay output:\n%s", out)
	}
}

// The in-process equivalent of the CLI determinism contract, pinned
// here so a flag-wiring regression (e.g. seeding from wall clock)
// fails the cmd package's own tests.
func TestCampaignSeedContract(t *testing.T) {
	run := func() *fuzzcamp.Stats {
		s, err := fuzzcamp.Run(context.Background(), fuzzcamp.Config{
			Seed: 9, MaxExecs: 6, SeedCount: 2, MinimizeBudget: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Elapsed = 0
		return s
	}
	a, b := run(), run()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("campaign stats differ across identical seeds:\n%+v\n%+v", a, b)
	}
}

// -replay finds a crasher directory named with or without a trailing
// slash, as a shell glob like crashers/*/ passes it: the archived
// stale-hit crasher passes the honest executor and reproduces under its
// plant either way.
func TestReplayTrailingSlash(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "crashers", "cache-temperature-5f5aa5a80d6f")
	if _, err := os.Stat(filepath.Join(dir, "crasher.json")); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, dir + string(filepath.Separator)} {
		if code := replayOne(context.Background(), d, fuzzcamp.Executor{}); code != 0 {
			t.Errorf("honest replay of %q: exit %d, want 0", d, code)
		}
		if code := replayOne(context.Background(), d, fuzzcamp.Executor{Plant: fuzzcamp.PlantStaleHit}); code != 2 {
			t.Errorf("stale-hit replay of %q: exit %d, want 2", d, code)
		}
	}
}
