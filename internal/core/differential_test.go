package core_test

// Differential testing of the static analysis against concrete execution:
// every program in the repository (the three corpus systems and the
// paper's running example) is both analyzed and run under the
// taint-tracking interpreter, and every critical sink that observes
// dynamically tainted data at run time must appear in the static
// data-flow error report. Dynamic taint is an under-approximation
// (one schedule, exact pointers, data flow only), so the inclusion
// dynamic ⊆ static is exactly the soundness direction the paper claims.

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"safeflow/internal/callgraph"
	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/ctoken"
	"safeflow/internal/frontend"
	"safeflow/internal/interp"
	"safeflow/internal/irgen"
	"safeflow/internal/shmflow"
)

// diffWorld is a minimal environment: a constant sensor reading, no
// actuator, no time. rig, when set, plays the hostile non-core side at
// each period boundary (writing into shared memory through the segment's
// raw bytes) so the guarded defect paths actually execute.
type diffWorld struct {
	sensor float64
	m      *interp.Machine
	rig    func(m *interp.Machine)
}

func (w *diffWorld) ReadSensor(ch int) float64 { return w.sensor }
func (w *diffWorld) WriteDA(ch int, v float64) {}
func (w *diffWorld) Wait(seconds float64) {
	if w.rig != nil {
		w.rig(w.m)
	}
}

// runDifferential executes the compiled program under taint tracking and
// checks every dynamically tainted sink against the static report.
func runDifferential(t *testing.T, res *irgen.Result, sensor float64, rig func(m *interp.Machine)) {
	t.Helper()

	rep, err := core.AnalyzeModule(context.Background(), t.Name(), res, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	staticData := make(map[ctoken.Pos]bool)
	for _, e := range rep.ErrorsData {
		staticData[e.Pos] = true
	}

	w := &diffWorld{sensor: sensor, rig: rig}
	m := interp.New(res.Module, w)
	w.m = m
	m.MaxSteps = 20_000_000
	tr := m.EnableTaint(shmflow.Analyze(res.Module, callgraph.New(res.Module)))
	if _, err := m.RunMain(); err != nil {
		// Traps and step-budget exhaustion are tolerated: the sinks
		// observed up to that point are still valid evidence.
		t.Logf("execution ended early: %v", err)
	}

	asserts, kills := tr.TaintedAsserts(), tr.TaintedKills()
	if len(asserts)+len(kills) == 0 {
		t.Fatal("no critical sink executed — differential check is vacuous")
	}
	tainted := 0
	check := func(sink string, sites map[ctoken.Pos]bool) {
		for pos, hot := range sites {
			if !hot {
				continue
			}
			tainted++
			if !staticData[pos] {
				t.Errorf("dynamically tainted %s at %s missing from static data-flow errors", sink, pos)
			}
		}
	}
	check("assert", asserts)
	check("kill", kills)
	if tainted == 0 {
		t.Error("no sink observed tainted data — execution did not exercise a defect")
	}
	t.Logf("sinks: %d assert / %d kill sites, %d tainted, %d static data errors",
		len(asserts), len(kills), tainted, len(rep.ErrorsData))
}

// TestDifferentialCorpus runs each corpus system (with a shortened
// mission) against its own static report.
func TestDifferentialCorpus(t *testing.T) {
	// The IP defect (kill of a pid read from the unmonitored registry) is
	// guarded by pid > 0, so the world must poison the registry for the
	// path to run: pids.noncorePid lives at byte 92 of the key-4660
	// segment (see src/ip/shared.h).
	rigs := map[string]func(m *interp.Machine){
		"IP": func(m *interp.Machine) {
			if seg := m.Segment(4660); seg != nil {
				binary.LittleEndian.PutUint32(seg[92:], 7777)
			}
		},
	}
	for _, sys := range corpus.All() {
		t.Run(sys.Name, func(t *testing.T) {
			src, err := sys.Sources()
			if err != nil {
				t.Fatal(err)
			}
			res, err := frontend.Compile(context.Background(), sys.Name, src, sys.CFiles, frontend.Options{
				Defines: map[string]string{"MAXITER": "200"},
			})
			if err != nil {
				t.Fatal(err)
			}
			runDifferential(t, res, 0.02, rigs[sys.Name])
		})
	}
}

// TestDifferentialFigure2 runs the paper's running example. The sensor
// reads 1.0 — past the safety threshold — so checkSafety rejects the
// (empty) complex proposal and the control output flows from the
// unmonitored feedback read-back, tainting the assert dynamically.
func TestDifferentialFigure2(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figure2.c"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := frontend.Compile(context.Background(), "figure2", cpp.MapSource{"main.c": string(data)}, []string{"main.c"}, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runDifferential(t, res, 1.0, nil)
}
