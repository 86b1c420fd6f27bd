package vfg

import (
	"context"
	"strings"
	"testing"

	"safeflow/internal/callgraph"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/pointsto"
	"safeflow/internal/shmflow"
)

const preamble = `
typedef struct { double a; double b; int flag; int pad; } Region;

Region *nc;

void initComm()
/***SafeFlow Annotation shminit /***/
{
	nc = (Region *) shmat(shmget(1, sizeof(Region), 0), 0, 0);
	/***SafeFlow Annotation assume(shmvar(nc, sizeof(Region))) /***/
	/***SafeFlow Annotation assume(noncore(nc)) /***/
}
`

func run(t *testing.T, src string, exponential bool) *Result {
	t.Helper()
	return runConfig(t, src, Config{Exponential: exponential})
}

// runConfig compiles src and runs the analysis with cfg's options.
func runConfig(t *testing.T, src string, cfg Config) *Result {
	t.Helper()
	res, err := frontend.Compile(context.Background(), "t", cpp.MapSource{"main.c": src}, []string{"main.c"}, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cg := callgraph.New(res.Module)
	sf := shmflow.Analyze(res.Module, cg)
	if len(sf.Errors) > 0 {
		t.Fatalf("shmflow: %v", sf.Errors)
	}
	cfg.Module, cfg.CG, cfg.SF = res.Module, cg, sf
	cfg.PTS = pointsto.Analyze(res.Module, pointsto.ModeSubset)
	cfg.AssertVars = res.AssertVars
	return Run(cfg)
}

func onlyError(t *testing.T, r *Result) *ErrorDep {
	t.Helper()
	if len(r.Errors) != 1 {
		for _, e := range r.Errors {
			t.Logf("error: %s", e)
		}
		t.Fatalf("errors = %d, want 1", len(r.Errors))
	}
	return r.Errors[0]
}

func TestDirectDataFlow(t *testing.T) {
	r := run(t, preamble+`
int main()
{
	double u;
	initComm();
	u = nc->a;
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	if len(r.Warnings) != 1 {
		t.Fatalf("warnings = %v", r.Warnings)
	}
	e := onlyError(t, r)
	if e.ControlOnly {
		t.Error("direct read must be a data dependency")
	}
	if e.Var != "u" {
		t.Errorf("var = %q", e.Var)
	}
}

func TestMonitoredReadSafe(t *testing.T) {
	r := run(t, preamble+`
double monitor()
/***SafeFlow Annotation assume(core(nc, 0, sizeof(Region))) /***/
{
	double v;
	v = nc->a;
	if (v > 1.0) { return 0.0; }
	if (v < -1.0) { return 0.0; }
	return v;
}
int main()
{
	double u;
	initComm();
	u = monitor();
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	if len(r.Warnings) != 0 || len(r.Errors) != 0 {
		t.Errorf("monitored read flagged: W=%v E=%v", r.Warnings, r.Errors)
	}
}

func TestPartialCoreRange(t *testing.T) {
	// Only the first 8 bytes (field a) are assumed core; reading b (offset
	// 8) stays unsafe.
	r := run(t, preamble+`
double partial()
/***SafeFlow Annotation assume(core(nc, 0, 8)) /***/
{
	return nc->a + nc->b;
}
int main()
{
	double u;
	initComm();
	u = partial();
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	if len(r.Warnings) != 1 {
		t.Fatalf("warnings = %v, want exactly the nc->b read", r.Warnings)
	}
	if !strings.Contains(r.Warnings[0].Detail, "[8]") {
		t.Errorf("warning detail = %q, want offset 8", r.Warnings[0].Detail)
	}
	if len(r.Errors) != 1 {
		t.Errorf("errors = %v", r.Errors)
	}
}

func TestContextInheritedByCallee(t *testing.T) {
	// The helper reads nc without its own annotation; called from the
	// monitoring function it is covered, from main it is not.
	r := run(t, preamble+`
double helper() { return nc->a; }
double monitored()
/***SafeFlow Annotation assume(core(nc, 0, sizeof(Region))) /***/
{
	double v;
	v = helper();
	if (v > 1.0) { return 0.0; }
	return v;
}
int main()
{
	double safe1;
	double unsafe1;
	initComm();
	safe1 = monitored();
	/***SafeFlow Annotation assert(safe(safe1)) /***/
	unsafe1 = helper();
	/***SafeFlow Annotation assert(safe(unsafe1)) /***/
	writeDA(0, safe1 + unsafe1);
	return 0;
}
`, false)
	if len(r.Warnings) != 1 {
		t.Fatalf("warnings = %v, want 1 (the unmonitored-context read)", r.Warnings)
	}
	if len(r.Errors) != 1 {
		for _, e := range r.Errors {
			t.Logf("error: %s", e)
		}
		t.Fatalf("errors = %d, want 1 (only unsafe1)", len(r.Errors))
	}
	if r.Errors[0].Var != "unsafe1" {
		t.Errorf("error var = %q, want unsafe1", r.Errors[0].Var)
	}
}

func TestControlDependencePhi(t *testing.T) {
	// The classic §3.4.1 false-positive shape: critical data is computed
	// safely on every path but which path runs depends on a non-core flag.
	r := run(t, preamble+`
int main()
{
	int f;
	double u;
	initComm();
	f = nc->flag;
	if (f) {
		u = 1.0;
	} else {
		u = 2.0;
	}
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	e := onlyError(t, r)
	if !e.ControlOnly {
		t.Errorf("config-gated constant selection must be control-only, got %s", e)
	}
}

func TestControlDependenceThroughReturn(t *testing.T) {
	// Multiple returns selected by a non-core condition: the callee's
	// result is control-dependent.
	r := run(t, preamble+`
double choose()
{
	if (nc->flag) {
		return 1.0;
	}
	return 2.0;
}
int main()
{
	double u;
	initComm();
	u = choose();
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	e := onlyError(t, r)
	if !e.ControlOnly {
		t.Errorf("return selection must be control-only, got %s", e)
	}
}

func TestDataDominatesControl(t *testing.T) {
	// A value with both a data path and a control path reports as data.
	r := run(t, preamble+`
int main()
{
	double u;
	initComm();
	if (nc->flag) {
		u = nc->a;
	} else {
		u = 0.0;
	}
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	e := onlyError(t, r)
	if e.ControlOnly {
		t.Errorf("mixed data+control dependency must classify as data: %s", e)
	}
	if len(e.Sources) != 2 {
		t.Errorf("sources = %d, want 2 (flag read + a read)", len(e.Sources))
	}
}

func TestTaintThroughMemory(t *testing.T) {
	// Unsafe value stored into a local struct field, read back later.
	r := run(t, preamble+`
typedef struct { double cache; int have; } Slot;
Slot slot;
void fill() { slot.cache = nc->a; slot.have = 1; }
int main()
{
	double u;
	initComm();
	fill();
	u = slot.cache;
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	e := onlyError(t, r)
	if e.ControlOnly || e.Var != "u" {
		t.Errorf("memory-carried taint lost: %s", e)
	}
}

func TestTaintThroughPointerParam(t *testing.T) {
	// Callee writes unsafe data through a pointer parameter (the figure2
	// computeSafety shape).
	r := run(t, preamble+`
void fetch(double *out) { *out = nc->b; }
int main()
{
	double v;
	double u;
	initComm();
	fetch(&v);
	u = v * 0.5;
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	e := onlyError(t, r)
	if e.ControlOnly {
		t.Errorf("pointer-parameter effect lost: %s", e)
	}
}

func TestSanitizeByOverwrite(t *testing.T) {
	// Flow-sensitivity via SSA: the unsafe value is overwritten before the
	// assert, so the asserted value is clean.
	r := run(t, preamble+`
int main()
{
	double u;
	initComm();
	u = nc->a;
	u = 0.0;
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	if len(r.Errors) != 0 {
		t.Errorf("overwritten value still flagged: %v", r.Errors)
	}
	if len(r.Warnings) != 1 {
		t.Errorf("the read itself must still warn: %v", r.Warnings)
	}
}

func TestKillPidSink(t *testing.T) {
	r := run(t, preamble+`
int main()
{
	initComm();
	kill(nc->flag, 9);
	return 0;
}
`, false)
	e := onlyError(t, r)
	if e.Var != "kill.pid" || e.ControlOnly {
		t.Errorf("kill sink: %s", e)
	}
}

func TestKillControlOnly(t *testing.T) {
	r := run(t, preamble+`
int main()
{
	initComm();
	if (nc->flag) {
		kill(getpid(), 15);
	}
	return 0;
}
`, false)
	e := onlyError(t, r)
	if e.Var != "kill.pid" || !e.ControlOnly {
		t.Errorf("guarded kill must be control-only: %s", e)
	}
}

func TestRecursionTerminates(t *testing.T) {
	r := run(t, preamble+`
double walk(int depth)
{
	if (depth <= 0) { return nc->a; }
	return walk(depth - 1) * 0.5;
}
int main()
{
	double u;
	initComm();
	u = walk(3);
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, false)
	e := onlyError(t, r)
	if e.Var != "u" {
		t.Errorf("recursive flow lost: %s", e)
	}
}

// TestExponentialRecursionTerminates guards against unbounded call-path
// context growth: recursive (and mutually recursive) programs must
// terminate in exponential mode by falling back to shared summaries past
// the depth cap.
func TestExponentialRecursionTerminates(t *testing.T) {
	r := run(t, preamble+`
double pong(int depth);
double ping(int depth)
{
	if (depth <= 0) { return nc->a; }
	return pong(depth - 1) * 0.5;
}
double pong(int depth)
{
	return ping(depth - 1) + 1.0;
}
int main()
{
	double u;
	initComm();
	u = ping(40);
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, true)
	if len(r.Errors) != 1 {
		t.Errorf("errors = %v", r.Errors)
	}
}

func TestExponentialAgrees(t *testing.T) {
	src := preamble + `
double helper() { return nc->a; }
int main()
{
	double u;
	initComm();
	u = helper();
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`
	fast := run(t, src, false)
	slow := run(t, src, true)
	if len(fast.Errors) != len(slow.Errors) || len(fast.Warnings) != len(slow.Warnings) {
		t.Errorf("modes disagree: fast E=%d W=%d, slow E=%d W=%d",
			len(fast.Errors), len(fast.Warnings), len(slow.Errors), len(slow.Warnings))
	}
	if slow.UnitsAnalyzed < fast.UnitsAnalyzed {
		t.Errorf("exponential did fewer solves (%d < %d)", slow.UnitsAnalyzed, fast.UnitsAnalyzed)
	}
}

func TestWarningDedupAcrossContexts(t *testing.T) {
	// The same read reached from two contexts is one warning.
	r := run(t, preamble+`
double helper() { return nc->a; }
double c1() { return helper(); }
double c2() { return helper(); }
int main()
{
	initComm();
	writeDA(0, c1() + c2());
	return 0;
}
`, false)
	if len(r.Warnings) != 1 {
		t.Errorf("warnings = %v, want a single deduplicated site", r.Warnings)
	}
}

func TestTaintKindOrdering(t *testing.T) {
	if maxKind(KindCtrl, KindData) != KindData {
		t.Error("kind ordering broken")
	}
	tnt := Taint{}
	const id = 3
	tnt.addSource(id, KindCtrl)
	if tnt.sourceKind(id) != KindCtrl {
		t.Error("kind after ctrl add")
	}
	tnt.addSource(id, KindData)
	if tnt.sourceKind(id) != KindData {
		t.Error("upgrade to data failed")
	}
	tnt.addSource(id, KindCtrl) // downgrade must not happen
	if tnt.sourceKind(id) != KindData {
		t.Error("downgrade happened")
	}
	w := tnt.weaken(KindCtrl)
	if w.sourceKind(id) != KindCtrl {
		t.Error("weaken failed")
	}
}

func TestContextKeyCanonical(t *testing.T) {
	rgn := &shmflow.Region{Name: "r", Size: 32}
	c1 := Context{}.with([]CoreRange{{Region: rgn, Lo: 0, Hi: 16}, {Region: rgn, Lo: 16, Hi: 32}})
	c2 := Context{}.with([]CoreRange{{Region: rgn, Lo: 16, Hi: 32}, {Region: rgn, Lo: 0, Hi: 16}})
	if c1.Key() != c2.Key() {
		t.Errorf("context keys differ: %q vs %q", c1.Key(), c2.Key())
	}
	if !c1.covers(rgn, shmflow.Exact(4), 8) {
		t.Error("covers failed for exact interval")
	}
	if c1.covers(rgn, shmflow.Interval{Unknown: true}, 8) {
		t.Error("unknown interval covered by partial ranges")
	}
	whole := Context{}.with([]CoreRange{{Region: rgn, Lo: 0, Hi: 32}})
	if !whole.covers(rgn, shmflow.Interval{Unknown: true}, 8) {
		t.Error("whole-region assumption must cover unknown intervals")
	}
}
