package interp

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/internal/frontend"
)

// gsxWorld runs the Generic Simplex core with quiet sensors. When rig is
// set, it plays the paper's feedback-rigging attack: in the unlock window
// after the core publishes its sensor feedback, the "non-core process"
// overwrites the shared copy — the value the defective computeSafeOutput
// re-reads into the safety output.
type gsxWorld struct {
	m       *Machine
	rig     bool
	rigged  bool
	outputs []float64
}

const (
	gsxSHMKey    = 4661
	gsxFbState0  = 0
	riggedState0 = 0.75
)

func (w *gsxWorld) ReadSensor(int) float64 { return 0 } // plant at rest
func (w *gsxWorld) WriteDA(ch int, v float64) {
	if ch == 0 {
		w.outputs = append(w.outputs, v)
	}
}
func (w *gsxWorld) Wait(float64) {}
func (w *gsxWorld) OnLock(int)   {}

func (w *gsxWorld) OnUnlock(int) {
	if !w.rig {
		return
	}
	seg := w.m.Segment(gsxSHMKey)
	if seg == nil {
		return
	}
	// Overwrite the published feedback with a hand-crafted value — the
	// interleaving the core wrongly assumes cannot happen.
	binary.LittleEndian.PutUint64(seg[gsxFbState0:], math.Float64bits(riggedState0))
	w.rigged = true
}

func runGSX(t *testing.T, rig bool) *gsxWorld {
	t.Helper()
	sys := corpus.GenericSimplex()
	src, err := sys.Sources()
	if err != nil {
		t.Fatal(err)
	}
	res, err := frontend.Compile(context.Background(), sys.Name, src, sys.CFiles, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := &gsxWorld{rig: rig}
	m := New(res.Module, w)
	w.m = m
	code, err := m.RunMain()
	if err != nil {
		t.Fatalf("gsx trapped: %v (last output: %v)", err, tailOf(m.Output))
	}
	if code != 0 {
		t.Fatalf("gsx exit = %d", code)
	}
	return w
}

// TestGenericSimplexFeedbackRiggingExecutes demonstrates dynamically the
// defect SafeFlow reports statically for this system: with a quiet plant
// the core's safety output should be zero, but a non-core process rigging
// the shared feedback copy drives the actuator — the core "used" its own
// published value without monitoring it.
func TestGenericSimplexFeedbackRiggingExecutes(t *testing.T) {
	baseline := runGSX(t, false)
	attacked := runGSX(t, true)
	if !attacked.rigged {
		t.Fatal("harness never rigged the feedback")
	}
	if len(baseline.outputs) == 0 || len(attacked.outputs) == 0 {
		t.Fatal("no actuator outputs recorded")
	}

	maxAbs := func(vals []float64) float64 {
		m := 0.0
		for _, v := range vals {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		return m
	}
	if b := maxAbs(baseline.outputs); b > 1e-9 {
		t.Errorf("baseline output should be zero on a quiet plant, got %g", b)
	}
	if a := maxAbs(attacked.outputs); a < 0.1 {
		t.Errorf("rigged feedback failed to influence the critical output (max |u| = %g)", a)
	}
}
