package safeflow_test

// Panic-isolation contract: a crash inside one job's pipeline becomes a
// structured InternalError in that job's report, and the other jobs in
// the same batch are completely unaffected — their reports render
// byte-identical to solo runs. The crash is injected through the phase
// hook, which fires inside the phase's isolation scope, so the test
// exercises exactly the recovery path a real bug would take.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

func renderBoth(t *testing.T, rep *safeflow.Report) (text, jsonOut string) {
	t.Helper()
	var tb, jb bytes.Buffer
	safeflow.WriteReport(&tb, rep)
	if err := safeflow.WriteReportJSON(&jb, rep); err != nil {
		t.Fatalf("render JSON: %v", err)
	}
	return tb.String(), jb.String()
}

func TestPanicIsolationInBatch(t *testing.T) {
	// Siblings: the three corpus systems, rendered solo first (hook not
	// yet installed) as the byte-identity reference.
	siblings := []corpus.System{corpus.IP(), corpus.GenericSimplex(), corpus.DoubleIP()}
	soloText := map[string]string{}
	soloJSON := map[string]string{}
	jobs := []safeflow.Job{}
	for _, s := range siblings {
		src, err := s.SourceMap()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		rep, err := safeflow.AnalyzeContext(context.Background(), s.Name, src, s.CFiles, safeflow.Options{})
		if err != nil {
			t.Fatalf("solo %s: %v", s.Name, err)
		}
		soloText[s.Name], soloJSON[s.Name] = renderBoth(t, rep)
		jobs = append(jobs, safeflow.Job{Name: s.Name, Sources: src, CFiles: s.CFiles})
	}

	// The victim: a generated system whose phase-3 run is made to crash.
	g := corpus.Generate(3, corpus.GenConfig{})
	jobs = append([]safeflow.Job{{Name: "victim", Sources: g.Sources, CFiles: g.CFiles}}, jobs...)

	core.SetPhaseHook(func(phase, system string) {
		if system == "victim" && phase == "vfg" {
			panic("injected vfg crash")
		}
	})
	defer core.SetPhaseHook(nil)

	results := safeflow.AnalyzeAll(jobs)

	// The victim fails structurally, not fatally: no process crash, no
	// job error, an InternalError diagnostic in its report.
	victim := results[0]
	if victim.Err != nil {
		t.Fatalf("victim: unexpected job error %v", victim.Err)
	}
	if n := len(victim.Report.Internal); n != 1 {
		t.Fatalf("victim: got %d internal errors, want 1: %v", n, victim.Report.Internal)
	}
	var ie *safeflow.InternalError
	if !errors.As(victim.Report.Internal[0], &ie) {
		t.Fatalf("victim: internal error has type %T, want *safeflow.InternalError",
			victim.Report.Internal[0])
	}
	if ie.Phase != "vfg" || len(ie.Stack) == 0 {
		t.Errorf("victim: InternalError{Phase: %q, len(Stack): %d}, want phase vfg and a stack",
			ie.Phase, len(ie.Stack))
	}
	if victim.Report.Clean() {
		t.Error("victim: report with an internal error must not be Clean")
	}
	text, _ := renderBoth(t, victim.Report)
	if !strings.Contains(text, "internal error in vfg") {
		t.Errorf("victim: text report does not surface the crash:\n%s", text)
	}

	// Siblings in the same batch are byte-identical to their solo runs.
	for _, res := range results[1:] {
		if res.Err != nil {
			t.Fatalf("sibling %s: %v", res.Name, res.Err)
		}
		gotText, gotJSON := renderBoth(t, res.Report)
		if gotText != soloText[res.Name] {
			t.Errorf("sibling %s: batch text report differs from solo run", res.Name)
		}
		if gotJSON != soloJSON[res.Name] {
			t.Errorf("sibling %s: batch JSON report differs from solo run", res.Name)
		}
	}
}
