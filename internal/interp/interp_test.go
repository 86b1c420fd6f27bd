package interp

import (
	"context"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/ir"
	"safeflow/internal/plant"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	res, err := frontend.Compile(context.Background(), "t", cpp.MapSource{"main.c": src}, []string{"main.c"}, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res.Module
}

// nullWorld satisfies World for programs that never touch hardware.
type nullWorld struct{}

func (nullWorld) ReadSensor(int) float64 { return 0 }
func (nullWorld) WriteDA(int, float64)   {}
func (nullWorld) Wait(float64)           {}

func runMain(t *testing.T, src string) (*Machine, int64) {
	t.Helper()
	m := New(compile(t, src), nullWorld{})
	code, err := m.RunMain()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, code
}

func TestArithmeticAndControlFlow(t *testing.T) {
	_, code := runMain(t, `
int fib(int n)
{
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main()
{
	int acc;
	int i;
	acc = 0;
	for (i = 0; i < 10; i++) {
		acc += i * i;
	}
	/* 285 + fib(10)=55 => 340 */
	return acc + fib(10);
}
`)
	if code != 340 {
		t.Errorf("exit code = %d, want 340", code)
	}
}

func TestStructsArraysPointers(t *testing.T) {
	_, code := runMain(t, `
typedef struct { double vals[4]; int n; } Buf;
void push(Buf *b, double v)
{
	b->vals[b->n] = v;
	b->n = b->n + 1;
}
double sum(Buf *b)
{
	double s;
	int i;
	s = 0.0;
	for (i = 0; i < b->n; i++) {
		s += b->vals[i];
	}
	return s;
}
int main()
{
	Buf b;
	b.n = 0;
	push(&b, 1.5);
	push(&b, 2.5);
	push(&b, -1.0);
	return (int) sum(&b);
}
`)
	if code != 3 {
		t.Errorf("exit code = %d, want 3", code)
	}
}

func TestSwitchGotoFloats(t *testing.T) {
	m, code := runMain(t, `
int classify(int n)
{
	switch (n) {
	case 0:
		return 100;
	case 1:
	case 2:
		return 200;
	default:
		return 300;
	}
}
int main()
{
	double x;
	int guard;
	x = 1.0;
	guard = 0;
again:
	x = x * 2.0;
	guard++;
	if (x < 100.0 && guard < 50) {
		goto again;
	}
	printf("x=%f cls=%d\n", x, classify(2));
	return classify(0) + classify(1) + classify(7);
}
`)
	if code != 600 {
		t.Errorf("exit = %d, want 600", code)
	}
	if len(m.Output) != 1 || !strings.Contains(m.Output[0], "x=128") || !strings.Contains(m.Output[0], "cls=200") {
		t.Errorf("output = %v", m.Output)
	}
}

func TestSharedMemoryRoundTrip(t *testing.T) {
	m, code := runMain(t, `
typedef struct { double v; int flag; int pad; } R;
R *region;
int main()
{
	void *base;
	base = shmat(shmget(5, sizeof(R), 0), 0, 0);
	region = (R *) base;
	region->v = 3.25;
	region->flag = 7;
	if (region->flag != 7) { return 1; }
	if (region->v != 3.25) { return 2; }
	return 0;
}
`)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	seg := m.Segment(5)
	if seg == nil {
		t.Fatal("segment missing")
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(seg)); got != 3.25 {
		t.Errorf("segment v = %g", got)
	}
	if got := binary.LittleEndian.Uint32(seg[8:]); got != 7 {
		t.Errorf("segment flag = %d", got)
	}
}

func TestExitAndTrap(t *testing.T) {
	m := New(compile(t, `
int main()
{
	printf("before\n");
	exit(42);
	printf("after\n");
	return 0;
}
`), nullWorld{})
	code, err := m.RunMain()
	if err != nil || code != 42 {
		t.Errorf("exit path: code=%d err=%v", code, err)
	}
	if len(m.Output) != 1 {
		t.Errorf("output after exit: %v", m.Output)
	}

	m2 := New(compile(t, `
int main()
{
	int arr[4];
	int i;
	for (i = 0; i <= 4; i++) {
		arr[i] = i;
	}
	return arr[0];
}
`), nullWorld{})
	if _, err := m2.RunMain(); err == nil {
		t.Error("out-of-bounds store not trapped")
	}
}

// ---------------------------------------------------------------------------
// Executing the corpus IP system against a simulated pendulum

// pendulumWorld wires the interpreted core controller to the nonlinear
// cart-pole and plays the non-core side of shared memory: a complex
// controller proposing outputs, and — at a chosen time — a hostile write
// poisoning the process registry with the core's own pid (the paper's
// kill defect, fired for real).
type pendulumWorld struct {
	m        *Machine
	plant    *plant.Pendulum
	x        []float64
	u        float64
	maxAngle float64
	poisonAt int
	waits    int
}

func (w *pendulumWorld) ReadSensor(ch int) float64 {
	switch ch {
	case 0:
		return w.x[2] // angle
	default:
		return w.x[0] // track
	}
}

func (w *pendulumWorld) WriteDA(_ int, v float64) { w.u = v }

// Shared-memory layout of the IP corpus (see src/ip/shared.h):
// feedback @0 (40B: angle, track, angleVel, trackVel, seq, pad),
// noncoreCtrl @40 (24B: control, timestamp, ready, seq),
// status @64 (24B), pids @88 (16B: corePid, noncorePid, ...).
const (
	ipSHMKey      = 4660
	offFbAngle    = 0
	offFbTrack    = 8
	offFbSeq      = 32
	offNcControl  = 40
	offNcReady    = 56
	offNcSeq      = 60
	offNoncorePid = 92
)

func (w *pendulumWorld) Wait(seconds float64) {
	w.waits++
	// Advance the plant under the currently applied output.
	steps := int(seconds / 0.001)
	if steps < 1 {
		steps = 1
	}
	for i := 0; i < steps; i++ {
		w.x = plant.RK4(w.plant, w.x, w.u, 0.001)
	}
	if a := math.Abs(w.x[2]); a > w.maxAngle {
		w.maxAngle = a
	}

	// Play the non-core complex controller: read the published feedback,
	// propose an aggressive output for the matching sequence number.
	seg := w.m.Segment(ipSHMKey)
	if seg == nil {
		return
	}
	angle := math.Float64frombits(binary.LittleEndian.Uint64(seg[offFbAngle:]))
	track := math.Float64frombits(binary.LittleEndian.Uint64(seg[offFbTrack:]))
	seq := int32(binary.LittleEndian.Uint32(seg[offFbSeq:]))
	// Aggressive complex law mirroring the safety gains (same polarity).
	u := 0.95*track + 2.46*0.0 + 38.0*angle
	binary.LittleEndian.PutUint64(seg[offNcControl:], math.Float64bits(u))
	binary.LittleEndian.PutUint32(seg[offNcReady:], 1)
	binary.LittleEndian.PutUint32(seg[offNcSeq:], uint32(seq))

	// The hostile act: poison the process registry with the core's pid.
	if w.waits == w.poisonAt {
		binary.LittleEndian.PutUint32(seg[offNoncorePid:], uint32(corePid))
	}
}

func TestCorpusIPExecutes(t *testing.T) {
	sys := corpus.IP()
	src, err := sys.Sources()
	if err != nil {
		t.Fatal(err)
	}
	res, err := frontend.Compile(context.Background(), sys.Name, src, sys.CFiles, frontend.Options{
		// Shorten the mission so the test is quick: 600 periods (6 s).
		Defines: map[string]string{"MAXITER": "600"},
	})
	if err != nil {
		t.Fatal(err)
	}

	w := &pendulumWorld{
		plant:    plant.DefaultPendulum(),
		x:        []float64{0, 0, 0.06, 0},
		poisonAt: 300,
	}
	m := New(res.Module, w)
	w.m = m

	code, err := m.RunMain()
	if err != nil {
		t.Fatalf("corpus IP trapped: %v\noutput: %v", err, tailOf(m.Output))
	}
	if code != 0 {
		t.Fatalf("exit = %d\noutput: %v", code, tailOf(m.Output))
	}

	// The core's safety/complex loop balanced the pendulum.
	if w.maxAngle > 0.5 {
		t.Errorf("pendulum fell: max |angle| = %g", w.maxAngle)
	}
	// Telemetry flowed.
	if len(m.Output) < 5 {
		t.Errorf("telemetry output missing: %v", m.Output)
	}

	// The paper's kill defect, executed: shutdownNonCore() read the
	// poisoned registry and the core killed ITS OWN pid.
	found := false
	for _, k := range m.Kills {
		if k.Pid == corePid && k.Sig == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("poisoned kill not observed: kills = %v", m.Kills)
	}
}

func tailOf(out []string) []string {
	if len(out) > 5 {
		return out[len(out)-5:]
	}
	return out
}
