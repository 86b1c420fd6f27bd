package shmflow

import (
	"context"
	"strings"
	"testing"

	"safeflow/internal/callgraph"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/ir"
)

const preamble = `
typedef struct { double a; double b; int flag; int pad; } Region;

Region *primary;
Region *secondary;

void initComm()
/***SafeFlow Annotation shminit /***/
{
	void *base;
	base = shmat(shmget(1, 2 * sizeof(Region), 0), 0, 0);
	primary = (Region *) base;
	secondary = primary + 1;
	/***SafeFlow Annotation assume(shmvar(primary, sizeof(Region))) /***/
	/***SafeFlow Annotation assume(shmvar(secondary, sizeof(Region))) /***/
	/***SafeFlow Annotation assume(noncore(secondary)) /***/
}
`

func analyze(t *testing.T, src string) (*Result, *ir.Module) {
	t.Helper()
	res, err := frontend.Compile(context.Background(), "t", cpp.MapSource{"main.c": src}, []string{"main.c"}, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cg := callgraph.New(res.Module)
	return Analyze(res.Module, cg), res.Module
}

func TestRegionDiscovery(t *testing.T) {
	sf, _ := analyze(t, preamble+`
int main() { return 0; }
`)
	if len(sf.Errors) != 0 {
		t.Fatalf("errors: %v", sf.Errors)
	}
	if len(sf.Regions) != 2 {
		t.Fatalf("regions = %v", sf.Regions)
	}
	p := sf.RegionByName["primary"]
	s := sf.RegionByName["secondary"]
	if p == nil || s == nil {
		t.Fatal("regions missing")
	}
	if p.Size != 24 || s.Size != 24 {
		t.Errorf("sizes = %d, %d, want 24", p.Size, s.Size)
	}
	if p.NonCore {
		t.Error("primary wrongly noncore")
	}
	if !s.NonCore {
		t.Error("secondary should be noncore")
	}
	if !sf.InitFuncs[initFunc(t, sf)] {
		t.Error("initComm not recorded as shminit")
	}
}

func initFunc(t *testing.T, sf *Result) *ir.Function {
	t.Helper()
	for f := range sf.InitFuncs {
		return f
	}
	t.Fatal("no init funcs")
	return nil
}

func TestDirectLoadFact(t *testing.T) {
	sf, m := analyze(t, preamble+`
double readA() { return primary->a; }
int main() { initComm(); return (int) readA(); }
`)
	f := m.FuncByName("readA")
	// The GEP computing &primary->a must carry the primary region at
	// offset 0.
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			g, ok := in.(*ir.GEP)
			if !ok {
				continue
			}
			fact := sf.FactOf(f, g)
			if fact.Empty() {
				continue
			}
			iv, ok := fact[sf.RegionByName["primary"]]
			if !ok {
				t.Errorf("GEP fact = %v, want primary", fact)
				continue
			}
			if iv.Unknown || iv.Lo != 0 {
				t.Errorf("offset = %v, want [0]", iv)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("no shm fact on the field GEP:\n%s", f)
	}
}

func TestFieldOffsetTracking(t *testing.T) {
	sf, m := analyze(t, preamble+`
double readB() { return secondary->b; }
int main() { initComm(); return (int) readB(); }
`)
	f := m.FuncByName("readB")
	reg := sf.RegionByName["secondary"]
	foundOffset := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if g, ok := in.(*ir.GEP); ok {
				if iv, ok := sf.FactOf(f, g)[reg]; ok && !iv.Unknown && iv.Lo == 8 {
					foundOffset = true
				}
			}
		}
	}
	if !foundOffset {
		t.Errorf("field b offset 8 not tracked in:\n%s", f)
	}
}

func TestInterproceduralParamFact(t *testing.T) {
	sf, m := analyze(t, preamble+`
double helper(Region *r) { return r->a; }
int main()
{
	initComm();
	return (int) helper(primary) + (int) helper(secondary);
}
`)
	f := m.FuncByName("helper")
	fact := sf.FactOf(f, f.Params[0])
	if len(fact) != 2 {
		t.Fatalf("param fact = %v, want both regions (top-down join)", fact)
	}
}

func TestReturnValueFact(t *testing.T) {
	sf, m := analyze(t, preamble+`
Region *pick(int which)
{
	if (which) { return primary; }
	return secondary;
}
int main()
{
	Region *r;
	initComm();
	r = pick(1);
	return r->flag;
}
`)
	pick := m.FuncByName("pick")
	ret := sf.RetFacts[pick]
	if len(ret) != 2 {
		t.Fatalf("pick return fact = %v, want both regions", ret)
	}
	// And the fact flows to the call result in main.
	mainFn := m.FuncByName("main")
	foundCall := false
	for _, b := range mainFn.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && c.Callee == pick {
				if fact := sf.FactOf(mainFn, c); len(fact) == 2 {
					foundCall = true
				}
			}
		}
	}
	if !foundCall {
		t.Error("call-result fact missing (bottom-up propagation)")
	}
}

func TestPointerArithmeticUnknownIndex(t *testing.T) {
	sf, m := analyze(t, preamble+`
double readAt(int i)
{
	double *base;
	base = &primary->a;
	return *(base + i);
}
int main() { initComm(); return (int) readAt(1); }
`)
	f := m.FuncByName("readAt")
	foundUnknown := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if g, ok := in.(*ir.GEP); ok {
				if iv, ok := sf.FactOf(f, g)[sf.RegionByName["primary"]]; ok && iv.Unknown {
					foundUnknown = true
				}
			}
		}
	}
	if !foundUnknown {
		t.Errorf("variable-index GEP should have unknown interval:\n%s", f)
	}
}

func TestAnnotationErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{
			"unknown global",
			`void init()
/***SafeFlow Annotation shminit /***/
{
	/***SafeFlow Annotation assume(shmvar(ghost, 8)) /***/
}
int main() { return 0; }`,
			"no global pointer variable",
		},
		{
			"non-pointer global",
			`int counter;
void init()
/***SafeFlow Annotation shminit /***/
{
	/***SafeFlow Annotation assume(shmvar(counter, 8)) /***/
}
int main() { return 0; }`,
			"not a pointer",
		},
		{
			"duplicate region",
			`double *r;
void init()
/***SafeFlow Annotation shminit /***/
{
	/***SafeFlow Annotation assume(shmvar(r, 8)) /***/
	/***SafeFlow Annotation assume(shmvar(r, 16)) /***/
}
int main() { return 0; }`,
			"already declared",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sf, _ := analyze(t, tc.src)
			if len(sf.Errors) == 0 {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(sf.Errors[0].Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", sf.Errors[0], tc.want)
			}
		})
	}
}

func TestIntervalOps(t *testing.T) {
	a := Exact(8)
	b := Exact(16)
	j := JoinInterval(a, b)
	if j.Lo != 8 || j.Hi != 16 || j.Unknown {
		t.Errorf("join = %v", j)
	}
	u := JoinInterval(a, Interval{Unknown: true})
	if !u.Unknown {
		t.Error("join with unknown must be unknown")
	}
	s := a.Shift(4, false)
	if s.Lo != 12 || s.Hi != 12 {
		t.Errorf("shift = %v", s)
	}
	if !a.Shift(0, true).Unknown {
		t.Error("unknown shift must poison")
	}
	if Exact(3).String() != "[3]" || (Interval{Unknown: true}).String() != "[?]" {
		t.Error("interval strings")
	}
}

func TestNoRegionsNoWork(t *testing.T) {
	sf, _ := analyze(t, `int main() { return 0; }`)
	if len(sf.Regions) != 0 || len(sf.Facts) != 0 {
		t.Errorf("unexpected analysis output without regions: %v", sf.Regions)
	}
}
