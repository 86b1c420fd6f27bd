package vfg

import (
	"context"
	"testing"

	"safeflow/internal/callgraph"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/pointsto"
	"safeflow/internal/shmflow"
)

// verdictSrc reports a warning in two contexts, a data error and a
// control-only error.
const verdictSrc = preamble + `
double acc;

void accumulate()
{
	acc = acc + nc->a;
}

double pick()
{
	if (nc->flag > 0) {
		return 1.0;
	}
	return 2.0;
}

void monitored()
/***SafeFlow Annotation assume(core(nc, 0, 8)) /***/
{
	accumulate();
}

int main()
{
	double u;
	double w;
	initComm();
	accumulate();
	monitored();
	u = acc;
	w = pick();
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	/***SafeFlow Annotation assert(safe(w)) /***/
	writeDA(1, w);
	return 0;
}
`

// analyzeShm compiles src and returns its shm facts and a Config over
// them.
func analyzeShm(t *testing.T, src string) (*shmflow.Result, Config) {
	t.Helper()
	res, err := frontend.Compile(context.Background(), "t", cpp.MapSource{"main.c": src}, []string{"main.c"}, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cg := callgraph.New(res.Module)
	sf := shmflow.Analyze(res.Module, cg)
	return sf, Config{Module: res.Module, CG: cg, SF: sf, PTS: pointsto.Analyze(res.Module, pointsto.ModeSubset),
		AssertVars: res.AssertVars, Workers: 1}
}

// TestVerdictBindRoundTrip: a verdict bound against another compile's
// regions renders the findings of the run it was taken from, with every
// source on that compile's regions, the same kinds and contexts, and no
// solve; a region name that does not resolve fails the bind.
func TestVerdictBindRoundTrip(t *testing.T) {
	_, cfg := analyzeShm(t, verdictSrc)
	res := Run(cfg)
	v := NewVerdict(res)
	sf, _ := analyzeShm(t, verdictSrc)
	got, ok := v.Bind(sf)
	if !ok {
		t.Fatal("bind failed against a compile of the same program")
	}
	if renderResult(got) != renderResult(res) {
		t.Errorf("bound verdict renders\n%s\nwant\n%s", renderResult(got), renderResult(res))
	}
	if got.UnitsAnalyzed != 0 || got.Transfers != 0 || got.Units != res.Units || got.SCCs != res.SCCs {
		t.Errorf("bound verdict: %d solves, %d transfers, %d units, %d SCCs; want 0, 0, %d, %d",
			got.UnitsAnalyzed, got.Transfers, got.Units, got.SCCs, res.Units, res.SCCs)
	}
	control := 0
	for i, e := range got.Errors {
		if e.ControlOnly != res.Errors[i].ControlOnly {
			t.Errorf("error %d: control-only %v, want %v", i, e.ControlOnly, res.Errors[i].ControlOnly)
		}
		if e.ControlOnly {
			control++
		}
		for s := range e.Sources {
			if !containsSource(got.Warnings, s) {
				t.Errorf("error %d: source %s is not one of the bound warnings", i, s)
			}
		}
	}
	if control == 0 || control == len(got.Errors) {
		t.Errorf("%d of %d errors control-only, want some of each", control, len(got.Errors))
	}
	for i, w := range got.Warnings {
		if w.Region != nil && w.Region != sf.RegionByName[w.Region.Name] {
			t.Errorf("warning %d: region is not the bound compile's", i)
		}
		if len(w.Contexts) != len(res.Warnings[i].Contexts) {
			t.Errorf("warning %d: %d contexts, want %d", i, len(w.Contexts), len(res.Warnings[i].Contexts))
		}
	}
	if _, ok := v.Bind(&shmflow.Result{}); ok {
		t.Error("bind succeeded with no regions to resolve")
	}
}

func containsSource(list []*Source, s *Source) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
