package core

import (
	"context"
	"os"
	"strings"
	"testing"

	"safeflow/internal/cpp"
	"safeflow/internal/pointsto"
)

func analyzeFile(t *testing.T, path string, opts Options) *Report {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	rep, err := AnalyzeSources(context.Background(), "test", cpp.MapSource{"main.c": string(src)}, []string{"main.c"}, opts)
	if err != nil {
		t.Fatalf("analyze %s: %v", path, err)
	}
	return rep
}

// TestFigure2Report reproduces the paper's running-example findings
// (Figure 2): the unmonitored feedback dereferences are warnings, and the
// critical output fails its assert(safe(output)) with a data dependency.
func TestFigure2Report(t *testing.T) {
	rep := analyzeFile(t, "../../testdata/figure2.c", Options{})

	if len(rep.AnnotationErrors) != 0 {
		t.Fatalf("annotation errors: %v", rep.AnnotationErrors)
	}
	if len(rep.Regions) != 2 {
		t.Fatalf("regions = %v, want feedback and noncoreCtrl", rep.Regions)
	}
	for _, r := range rep.Regions {
		if !r.NonCore {
			t.Errorf("region %s should be noncore", r.Name)
		}
		if r.Size != 32 {
			t.Errorf("region %s size = %d, want 32", r.Name, r.Size)
		}
	}
	if len(rep.Violations) != 0 {
		t.Errorf("restriction violations: %v", rep.Violations)
	}

	// Three unmonitored reads of feedback: fb->angle and fb->track in
	// computeSafety, f->angle in checkSafety.
	if len(rep.Warnings) != 3 {
		for _, w := range rep.Warnings {
			t.Logf("warning: %s", w)
		}
		t.Fatalf("warnings = %d, want 3", len(rep.Warnings))
	}
	for _, w := range rep.Warnings {
		if w.Region == nil || w.Region.Name != "feedback" {
			t.Errorf("warning %s: region should be feedback", w)
		}
	}

	// One error dependency: assert(safe(output)) — a data dependency via
	// safeControl computed from the unmonitored feedback.
	if len(rep.ErrorsData) != 1 {
		for _, e := range rep.ErrorsData {
			t.Logf("data error: %s", e)
		}
		for _, e := range rep.ErrorsControlOnly {
			t.Logf("ctrl error: %s", e)
		}
		t.Fatalf("data errors = %d, want 1", len(rep.ErrorsData))
	}
	e := rep.ErrorsData[0]
	if e.Var != "output" {
		t.Errorf("error var = %q, want output", e.Var)
	}
	if len(e.Sources) == 0 {
		t.Errorf("error should cite its unsafe sources")
	}
}

// TestFigure2Monitored checks the fix the paper suggests (§3.4.2): adding
// assume(core(feedback, ...)) to the reading functions removes the
// warnings and the error.
func TestFigure2Monitored(t *testing.T) {
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}
	patched := string(src)
	// Declare feedback core inside both reading functions.
	patched = replaceOnce(t, patched,
		"void computeSafety(SHMData *fb, double *safeOut)\n{",
		"void computeSafety(SHMData *fb, double *safeOut)\n/***SafeFlow Annotation assume(core(fb, 0, sizeof(SHMData))) /***/\n{")
	patched = replaceOnce(t, patched,
		"/***SafeFlow Annotation assume(core(nc, 0, sizeof(SHMData))) /***/\n{\n    double u;",
		"/***SafeFlow Annotation assume(core(nc, 0, sizeof(SHMData))) /***/\n/***SafeFlow Annotation assume(core(f, 0, sizeof(SHMData))) /***/\n{\n    double u;")

	rep, err := AnalyzeSources(context.Background(), "patched", cpp.MapSource{"main.c": patched}, []string{"main.c"}, Options{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(rep.Warnings) != 0 {
		for _, w := range rep.Warnings {
			t.Logf("warning: %s", w)
		}
		t.Errorf("patched program should have no warnings, got %d", len(rep.Warnings))
	}
	if rep.TotalErrors() != 0 {
		t.Errorf("patched program should have no errors, got %d", rep.TotalErrors())
	}
}

func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	i := indexOf(s, old)
	if i < 0 {
		t.Fatalf("pattern not found: %q", old)
	}
	return s[:i] + new + s[i+len(old):]
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestFigure2BothModes checks both alias solvers agree on the running
// example (the subset solver must not be less sound than unify).
func TestFigure2BothModes(t *testing.T) {
	subset := analyzeFile(t, "../../testdata/figure2.c", Options{PointsTo: pointsto.ModeSubset})
	unify := analyzeFile(t, "../../testdata/figure2.c", Options{PointsTo: pointsto.ModeUnify})
	if len(subset.Warnings) != len(unify.Warnings) {
		t.Errorf("warning counts differ: subset %d, unify %d", len(subset.Warnings), len(unify.Warnings))
	}
	if subset.TotalErrors() > unify.TotalErrors() {
		t.Errorf("unify (coarser) found fewer errors than subset: %d < %d",
			unify.TotalErrors(), subset.TotalErrors())
	}
}

// TestFigure2Exponential checks the unoptimized per-call-path variant
// produces the same findings at higher cost.
func TestFigure2Exponential(t *testing.T) {
	fast := analyzeFile(t, "../../testdata/figure2.c", Options{})
	slow := analyzeFile(t, "../../testdata/figure2.c", Options{Exponential: true})
	if len(fast.Warnings) != len(slow.Warnings) || fast.TotalErrors() != slow.TotalErrors() {
		t.Errorf("exponential variant diverges: warnings %d vs %d, errors %d vs %d",
			len(fast.Warnings), len(slow.Warnings), fast.TotalErrors(), slow.TotalErrors())
	}
}

// TestSourceStats sanity-checks the Table 1 bookkeeping columns.
// TestUnknownRootReported checks that Options.Roots entries that do not
// resolve to a defined function surface as annotation errors instead of
// being silently skipped, and that valid roots still drive the analysis.
func TestUnknownRootReported(t *testing.T) {
	rep := analyzeFile(t, "../../testdata/figure2.c", Options{Roots: []string{"main", "noSuchFn"}})

	found := false
	for _, e := range rep.AnnotationErrors {
		if strings.Contains(e.Error(), `root function "noSuchFn" not found`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("unknown root not reported; annotation errors: %v", rep.AnnotationErrors)
	}
	if len(rep.Warnings) != 3 {
		t.Errorf("valid root should still be analyzed: warnings = %d, want 3", len(rep.Warnings))
	}

	rep = analyzeFile(t, "../../testdata/figure2.c", Options{Roots: []string{"shmat"}})
	found = false
	for _, e := range rep.AnnotationErrors {
		if strings.Contains(e.Error(), `root function "shmat" is declared but not defined`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("declared-only root not reported; annotation errors: %v", rep.AnnotationErrors)
	}
}

func TestSourceStats(t *testing.T) {
	rep := analyzeFile(t, "../../testdata/figure2.c", Options{})
	if rep.LinesOfCode < 80 {
		t.Errorf("LinesOfCode = %d, suspiciously low", rep.LinesOfCode)
	}
	if rep.AnnotationLines != 8 {
		t.Errorf("AnnotationLines = %d, want 8", rep.AnnotationLines)
	}
}
