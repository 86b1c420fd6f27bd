package corpus

import (
	"context"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/cpp"
)

// patch applies ordered textual replacements to one file of a system's
// source tree, failing if any pattern is missing (so repairs stay in sync
// with the corpus).
func patch(t *testing.T, source cpp.Source, file string, replacements [][2]string) cpp.MapSource {
	t.Helper()
	src, ok := source.(cpp.MapSource)
	if !ok {
		t.Fatalf("corpus sources are not a MapSource")
	}
	out := cpp.MapSource{}
	for k, v := range src {
		out[k] = v
	}
	text, present := out[file]
	if !present {
		t.Fatalf("no file %q", file)
	}
	for _, r := range replacements {
		if !strings.Contains(text, r[0]) {
			t.Fatalf("pattern not found in %s: %q", file, r[0])
		}
		text = strings.Replace(text, r[0], r[1], 1)
	}
	out[file] = text
	return out
}

// TestIPRepairedIsClean repairs every defect SafeFlow found in the IP
// system — the closing step of the paper's workflow — and verifies the
// repaired system analyzes clean:
//
//   - the kill target comes from a core-recorded pid instead of the
//     unmonitored registry;
//   - telemetry reads go through a monitoring function;
//   - the redundant unmonitored ready pre-check is removed (decision
//     already checks it under its core assumption);
//   - the shutdown request is read through a monitoring function.
func TestIPRepairedIsClean(t *testing.T) {
	sys := IP()
	src, err := sys.Sources()
	if err != nil {
		t.Fatal(err)
	}

	repaired := patch(t, src, "main.c", [][2]string{
		// Record the non-core pid on the core side at spawn time (modeled
		// by a core global) and kill that instead of the shm registry.
		{
			"#include \"shared.h\"",
			"#include \"shared.h\"\n\nstatic int recordedNonCorePid;\n",
		},
		// Telemetry becomes a monitoring function for status+noncoreCtrl.
		{
			"static void logTelemetry(int iter)\n{",
			"static void logTelemetry(int iter)\n" +
				"/***SafeFlow Annotation assume(core(status, 0, sizeof(SHMStatus))) /***/\n" +
				"/***SafeFlow Annotation assume(core(noncoreCtrl, 0, sizeof(SHMCmd))) /***/\n{",
		},
		{
			"static void checkShutdownRequest()\n{",
			"static void checkShutdownRequest()\n" +
				"/***SafeFlow Annotation assume(core(status, 0, sizeof(SHMStatus))) /***/\n{",
		},
		{
			"    np = pids->noncorePid;\n    if (np > 0) {\n        kill(np, SIGKILL);\n    }",
			"    np = recordedNonCorePid;\n    if (np > 0) {\n        kill(np, SIGKILL);\n    }",
		},
		// Drop the unmonitored ready pre-check; decision handles staleness.
		{
			"        ready = noncoreCtrl->ready;\n        if (ready != 0) {\n            output = decision(safeControl, iter);\n        } else {\n            output = safeControl;\n        }",
			"        output = decision(safeControl, iter);",
		},
		{
			"    int iter;\n    int ready;",
			"    int iter;",
		},
	})

	rep, err := core.AnalyzeSources(context.Background(), "IP-repaired", repaired, sys.CFiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 0 {
		for _, w := range rep.Warnings {
			t.Logf("warning: %s", w)
		}
		t.Errorf("repaired IP still has %d warnings", len(rep.Warnings))
	}
	if rep.TotalErrors() != 0 {
		for _, e := range rep.ErrorsData {
			t.Logf("error: %s", e)
		}
		for _, e := range rep.ErrorsControlOnly {
			t.Logf("ctrl: %s", e)
		}
		t.Errorf("repaired IP still has %d error reports", rep.TotalErrors())
	}
	if len(rep.Violations) != 0 {
		t.Errorf("repaired IP has violations: %v", rep.Violations)
	}
}

// TestGenericSimplexFeedbackRepair fixes only the feedback-rigging defect
// (using the core-local state instead of re-reading shared memory) and
// checks precisely that error disappears while the others persist — the
// analysis distinguishes the defects.
func TestGenericSimplexFeedbackRepair(t *testing.T) {
	sys := GenericSimplex()
	src, err := sys.Sources()
	if err != nil {
		t.Fatal(err)
	}
	repaired := patch(t, src, "channels.c", [][2]string{
		{
			"    s0 = feedback->state0;\n    s1 = feedback->state1;",
			"    s0 = st.s0;\n    s1 = st.s1;",
		},
	})
	rep, err := core.AnalyzeSources(context.Background(), "gsx-feedback-fixed", repaired, sys.CFiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The output error disappears; the kill-pid error remains.
	if len(rep.ErrorsData) != 1 {
		for _, e := range rep.ErrorsData {
			t.Logf("error: %s", e)
		}
		t.Errorf("data errors = %d, want 1 (kill-pid only)", len(rep.ErrorsData))
	}
	if len(rep.ErrorsData) == 1 && rep.ErrorsData[0].Var != "kill.pid" {
		t.Errorf("remaining error = %s, want kill.pid", rep.ErrorsData[0])
	}
	// Two fewer warnings (the re-reads are gone).
	if len(rep.Warnings) != sys.Expected.Warnings-2 {
		t.Errorf("warnings = %d, want %d", len(rep.Warnings), sys.Expected.Warnings-2)
	}
	// The control-dependence reports are untouched.
	if len(rep.ErrorsControlOnly) != sys.Expected.FalsePositives {
		t.Errorf("control reports = %d, want %d", len(rep.ErrorsControlOnly), sys.Expected.FalsePositives)
	}
}

// TestDoubleIPBlendRepair routes the blend factor through the tuning
// monitor, eliminating the propagation error.
func TestDoubleIPBlendRepair(t *testing.T) {
	sys := DoubleIP()
	src, err := sys.Sources()
	if err != nil {
		t.Fatal(err)
	}
	repaired := patch(t, src, "control.c", [][2]string{
		{
			"double blendFactor()\n{",
			"double blendFactor()\n/***SafeFlow Annotation assume(core(tuning, 0, sizeof(SHMTuning))) /***/\n{",
		},
	})
	rep, err := core.AnalyzeSources(context.Background(), "dip-blend-fixed", repaired, sys.CFiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ErrorsData) != 1 {
		for _, e := range rep.ErrorsData {
			t.Logf("error: %s", e)
		}
		t.Errorf("data errors = %d, want 1 (kill-pid only)", len(rep.ErrorsData))
	}
	if len(rep.Warnings) != sys.Expected.Warnings-1 {
		t.Errorf("warnings = %d, want %d", len(rep.Warnings), sys.Expected.Warnings-1)
	}
}
