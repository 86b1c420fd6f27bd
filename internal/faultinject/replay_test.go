package faultinject

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"testing"

	"safeflow/internal/diag"
	"safeflow/internal/vfg"
)

// scenarioFlag selects one scenario for TestReplayScenario — the
// one-command replay every harness failure message points at:
//
//	go test ./internal/faultinject -run TestReplayScenario \
//	    -scenario 'seed=17,gen=2/2/3/2,faults=1,workers=2,stats=false'
var scenarioFlag = flag.String("scenario", "", "replay one fault-injection scenario (see Scenario.String)")

// TestReplayScenario replays the -scenario flag's exact seed and
// injector configuration through the full invariant battery:
// worker-count byte determinism, faulted units diagnosed, no summary
// cache publication. Without the flag it only round-trips the
// scenario encoding.
func TestReplayScenario(t *testing.T) {
	if *scenarioFlag == "" {
		sc := Scenario{Seed: 17, Faults: 1, Workers: 2}
		parsed, err := ParseScenario(sc.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != sc {
			t.Fatalf("scenario round trip: %v -> %v", sc, parsed)
		}
		t.Skip("no -scenario given; encoding round trip only")
	}
	sc, err := ParseScenario(*scenarioFlag)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replaying %s", sc)
	replayInvariants(t, sc)
}

// replayInvariants runs one scenario through the standing invariants;
// shared by the replay entry point and the seeded harness tests.
func replayInvariants(t *testing.T, sc Scenario) {
	t.Helper()
	vfg.ResetStateStore()
	defer vfg.ResetStateStore()

	var first *Result
	for _, workers := range []int{sc.Workers, 1, runtime.GOMAXPROCS(0)} {
		wsc := sc
		wsc.Workers = workers
		res, err := Run(context.Background(), wsc)
		if err != nil {
			t.Fatalf("workers=%d: %v\n%s", workers, err, sc.Repro())
		}
		if sc.Faults > 0 {
			if !res.Report.Degraded {
				t.Fatalf("workers=%d: run not degraded\n%s", workers, sc.Repro())
			}
			skipped := map[string]bool{}
			for _, u := range diag.Units(res.Report.Diagnostics) {
				skipped[u] = true
			}
			for _, f := range res.Faults {
				if !skipped[f.Unit] {
					t.Errorf("workers=%d: fault %s not diagnosed\n%s", workers, f, sc.Repro())
				}
			}
		}
		if first == nil {
			first = res
			continue
		}
		if res.Text != first.Text || res.JSON != first.JSON {
			t.Errorf("workers=%d: report bytes differ from workers=%d\n%s",
				workers, sc.Workers, sc.Repro())
		}
	}
	if sc.Faults > 0 {
		if n := len(vfg.StateStoreKeys()); n != 0 {
			t.Errorf("faulted replay stored %d phase-3 states\n%s", n, sc.Repro())
		}
	}
	if t.Failed() {
		t.Logf("scenario detail: %s; faults planted: %v", sc, first.Faults)
	} else {
		t.Logf("invariants hold for %s (faults %v)", sc, first.Faults)
	}
}

// Every harness seed must replay cleanly through the same battery the
// -scenario flag uses, so a printed repro line is guaranteed to drive
// a working entry point.
func TestReplayScenarioSeeds(t *testing.T) {
	for _, seed := range harnessSeeds {
		sc := Scenario{Seed: seed, Faults: 1, Workers: 2}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { replayInvariants(t, sc) })
	}
}
