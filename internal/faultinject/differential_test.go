package faultinject

// Differential soundness of degraded verdicts: run the ORIGINAL,
// unfaulted system under the taint-tracking interpreter, then fault its
// middle units and analyze in recovering mode. Every critical sink that
// dynamically observed tainted data and is positioned in a translation
// unit that SURVIVED the faulted static run must still appear in the
// degraded static error report — the conservative treatment of calls
// into skipped definitions is exactly what makes this inclusion hold.

import (
	"context"
	"fmt"
	"testing"

	"safeflow/internal/callgraph"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/ctoken"
	"safeflow/internal/diag"
	"safeflow/internal/frontend"
	"safeflow/internal/interp"
	"safeflow/internal/shmflow"
)

// nullWorld satisfies interp.World for generated systems, which never
// read sensors or wait.
type nullWorld struct{}

func (nullWorld) ReadSensor(ch int) float64 { return 0.5 }
func (nullWorld) WriteDA(ch int, v float64) {}
func (nullWorld) Wait(seconds float64)      {}

func TestDifferentialDegradedInclusion(t *testing.T) {
	checked := 0
	for _, seed := range harnessSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			gen := corpus.Generate(seed, corpus.GenConfig{})

			// Dynamic taint on the original program.
			res, err := frontend.Compile(context.Background(), gen.Name, cpp.MapSource(gen.Sources), gen.CFiles, frontend.Options{})
			if err != nil {
				t.Fatalf("original system does not compile: %v", err)
			}
			m := interp.New(res.Module, nullWorld{})
			m.MaxSteps = 20_000_000
			tr := m.EnableTaint(shmflow.Analyze(res.Module, callgraph.New(res.Module)))
			if _, err := m.RunMain(); err != nil {
				t.Logf("execution ended early: %v", err)
			}

			// Degraded static verdicts on the faulted program.
			sc := Scenario{Seed: seed, Faults: 1}
			fr, err := Run(context.Background(), sc, nil)
			if err != nil {
				t.Fatalf("%v\n%s", err, sc.Repro())
			}
			if !fr.Report.Degraded {
				t.Fatalf("faulted run not degraded\n%s", sc.Repro())
			}
			skipped := map[string]bool{}
			for _, u := range diag.Units(fr.Report.Diagnostics) {
				skipped[u] = true
			}
			staticData := map[ctoken.Pos]bool{}
			for _, e := range fr.Report.ErrorsData {
				staticData[e.Pos] = true
			}

			check := func(sink string, sites map[ctoken.Pos]bool) {
				for pos, hot := range sites {
					if !hot || skipped[pos.File] {
						continue
					}
					checked++
					if !staticData[pos] {
						t.Errorf("dynamically tainted %s at %s (surviving unit) missing from degraded static errors\n%s",
							sink, pos, sc.Repro())
					}
				}
			}
			check("assert", tr.TaintedAsserts())
			check("kill", tr.TaintedKills())
		})
	}
	if checked == 0 {
		t.Error("no tainted sink in any surviving unit across the seed set — inclusion check is vacuous")
	}
	t.Logf("checked %d dynamically tainted surviving-unit sinks", checked)
}
