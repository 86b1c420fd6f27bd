package restrict

import (
	"context"
	"strings"
	"testing"

	"safeflow/internal/callgraph"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/shmflow"
)

const preamble = `
typedef struct { double vals[8]; int n; int pad; } Buf;

Buf *shared;

void initComm()
/***SafeFlow Annotation shminit /***/
{
	void *base;
	base = shmat(shmget(1, sizeof(Buf), 0), 0, 0);
	shared = (Buf *) base;
	/***SafeFlow Annotation assume(shmvar(shared, sizeof(Buf))) /***/
	/***SafeFlow Annotation assume(noncore(shared)) /***/
}
`

func check(t *testing.T, src string) []Violation {
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
	return Check(res.Module, sf)
}

func wantRule(t *testing.T, vs []Violation, rule Rule, substr string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule && strings.Contains(v.Msg, substr) {
			return
		}
	}
	t.Errorf("no %s violation containing %q in %v", rule, substr, vs)
}

func wantClean(t *testing.T, vs []Violation) {
	t.Helper()
	if len(vs) != 0 {
		t.Errorf("unexpected violations: %v", vs)
	}
}

func TestP1Deallocation(t *testing.T) {
	vs := check(t, preamble+`
void cleanup() { shmdt(shared); }
int main() { initComm(); cleanup(); return 0; }
`)
	wantRule(t, vs, RuleP1, "deallocated")
}

func TestP1EndOfMainAllowed(t *testing.T) {
	vs := check(t, preamble+`
int main()
{
	initComm();
	shmdt(shared);
	return 0;
}
`)
	wantClean(t, vs)
}

func TestP1EarlyInMainRejected(t *testing.T) {
	vs := check(t, preamble+`
int main()
{
	initComm();
	shmdt(shared);
	printf("still running\n");
	return 0;
}
`)
	wantRule(t, vs, RuleP1, "deallocated")
}

func TestP2StoreShmPointer(t *testing.T) {
	vs := check(t, preamble+`
Buf *stash;
void alias()
{
	Buf **pp;
	pp = &stash;
	*pp = shared;
}
int main() { initComm(); alias(); return 0; }
`)
	wantRule(t, vs, RuleP2, "stored to memory")
}

func TestP2RegionGlobalReassigned(t *testing.T) {
	vs := check(t, preamble+`
void rebase() { shared = shared + 1; }
int main() { initComm(); rebase(); return 0; }
`)
	wantRule(t, vs, RuleP2, "reassigned")
}

func TestP2AddressOfRegionGlobal(t *testing.T) {
	vs := check(t, preamble+`
void escape(Buf **out) { *out = *(&shared); }
int main()
{
	Buf *copy;
	initComm();
	escape(&copy);
	return 0;
}
`)
	if len(vs) == 0 {
		t.Errorf("taking the address of a region global must violate P2")
	}
}

func TestP3IncompatibleCast(t *testing.T) {
	vs := check(t, preamble+`
typedef struct { long words[5]; } Other;
long reinterpret()
{
	Other *o;
	o = (Other *) shared;
	return o->words[0];
}
int main() { initComm(); return (int) reinterpret(); }
`)
	wantRule(t, vs, RuleP3, "incompatible")
}

func TestP3PtrToInt(t *testing.T) {
	vs := check(t, preamble+`
long leak() { return (long) shared; }
int main() { initComm(); return (int) leak(); }
`)
	wantRule(t, vs, RuleP3, "cast to integer")
}

func TestP3VoidAndCharCastsAllowed(t *testing.T) {
	vs := check(t, preamble+`
void benign()
{
	void *v;
	char *c;
	v = (void *) shared;
	c = (char *) shared;
	memset(v, 0, 1);
	printf("%s", c);
}
int main() { initComm(); benign(); return 0; }
`)
	// Storing to v/c locals is fine (they are promoted scalars, but even
	// unpromoted: storing an shm pointer value is P2)... the casts
	// themselves are compatible, but the stores of shm-pointer values into
	// locals happen pre-promotion. After mem2reg no stores remain.
	for _, v := range vs {
		if v.Rule == RuleP3 {
			t.Errorf("benign cast flagged: %v", v)
		}
	}
}

func TestA1ConstantInBounds(t *testing.T) {
	vs := check(t, preamble+`
double readOk() { return shared->vals[3]; }
int main() { initComm(); return (int) readOk(); }
`)
	wantClean(t, vs)
}

func TestA1ConstantOutOfBounds(t *testing.T) {
	vs := check(t, preamble+`
double readBad() { return shared->vals[8]; }
int main() { initComm(); return (int) readBad(); }
`)
	wantRule(t, vs, RuleA1, "outside")
}

func TestA2GuardedLoopAccepted(t *testing.T) {
	vs := check(t, preamble+`
double sum()
{
	int i;
	double acc;
	acc = 0.0;
	for (i = 0; i < 8; i++) {
		acc += shared->vals[i];
	}
	return acc;
}
int main() { initComm(); return (int) sum(); }
`)
	wantClean(t, vs)
}

func TestA2LooseBoundRejected(t *testing.T) {
	vs := check(t, preamble+`
double sum()
{
	int i;
	double acc;
	acc = 0.0;
	for (i = 0; i < 9; i++) {
		acc += shared->vals[i];
	}
	return acc;
}
int main() { initComm(); return (int) sum(); }
`)
	wantRule(t, vs, RuleA2, "below bound")
}

func TestA2SymbolicBoundRejected(t *testing.T) {
	// The bound comes from shm data — not provably within the array.
	vs := check(t, preamble+`
double sum(int n)
{
	int i;
	double acc;
	acc = 0.0;
	for (i = 0; i < n; i++) {
		acc += shared->vals[i];
	}
	return acc;
}
int main() { initComm(); return (int) sum(8); }
`)
	wantRule(t, vs, RuleA2, "below bound")
}

func TestA2GuardedSymbolicAccepted(t *testing.T) {
	// A dominating guard n <= 8 makes the symbolic loop provable.
	vs := check(t, preamble+`
double sum(int n)
{
	int i;
	double acc;
	acc = 0.0;
	if (n > 8) {
		return 0.0;
	}
	for (i = 0; i < n; i++) {
		acc += shared->vals[i];
	}
	return acc;
}
int main() { initComm(); return (int) sum(8); }
`)
	wantClean(t, vs)
}

func TestA2NegativeStartRejected(t *testing.T) {
	vs := check(t, preamble+`
double sum()
{
	int i;
	double acc;
	acc = 0.0;
	for (i = -1; i < 8; i++) {
		acc += shared->vals[i];
	}
	return acc;
}
int main() { initComm(); return (int) sum(); }
`)
	wantRule(t, vs, RuleA2, "non-negative")
}

func TestA2NonAffineRejected(t *testing.T) {
	vs := check(t, preamble+`
double pick(int i)
{
	return shared->vals[i % 8];
}
int main() { initComm(); return (int) pick(11); }
`)
	wantRule(t, vs, RuleA2, "affine")
}

func TestA2AffineTransformAccepted(t *testing.T) {
	// vals[2*i + 1] for i in [0,3] touches 1,3,5,7 — provably in bounds.
	vs := check(t, preamble+`
double strided()
{
	int i;
	double acc;
	acc = 0.0;
	for (i = 0; i < 4; i++) {
		acc += shared->vals[2 * i + 1];
	}
	return acc;
}
int main() { initComm(); return (int) strided(); }
`)
	wantClean(t, vs)
}

func TestInitFunctionExempt(t *testing.T) {
	// All the pointer casts and arithmetic inside shminit must pass.
	vs := check(t, preamble+`
int main() { initComm(); return 0; }
`)
	wantClean(t, vs)
}

func TestViolationString(t *testing.T) {
	vs := check(t, preamble+`
long leak() { return (long) shared; }
int main() { initComm(); return (int) leak(); }
`)
	if len(vs) == 0 {
		t.Fatal("expected a violation")
	}
	s := vs[0].String()
	if !strings.Contains(s, "P3") || !strings.Contains(s, "leak") {
		t.Errorf("violation string = %q", s)
	}
}
