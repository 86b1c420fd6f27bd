package vfg

import (
	"strings"
	"testing"
)

// renderResult prints a result's findings in their deterministic order.
func renderResult(r *Result) string {
	var b strings.Builder
	for _, w := range r.Warnings {
		b.WriteString(w.String() + "\n")
	}
	for _, e := range r.Errors {
		b.WriteString(e.String() + "\n")
		for _, s := range e.SortedSources() {
			b.WriteString("  " + s.String() + "\n")
		}
	}
	return b.String()
}

// TestDemandDrivenRounds pins the driver's round structure on memory
// flow. In the top-down case the callee getG is solved before its caller
// stores tainted data into g, so a second round is needed; it re-solves
// only getG, which read g, and step, whose callee's summary changed —
// not main. A unit that reads and writes the same global converges in
// one round: its own writes reach it through its local overlay. In the
// fan-out case independent readers and writers of the same globals
// solve concurrently, so whether a reader started before a write
// depends on the schedule: only bounds hold, and the findings must not
// depend on it.
func TestDemandDrivenRounds(t *testing.T) {
	for _, tc := range []struct {
		name          string
		src           string
		units, rounds int
		solves        int
		exact         bool // rounds and solves are exact, not bounds
	}{
		{"top-down", preamble + `
double g;

double getG()
{
	return g;
}

void step()
{
	double v;
	v = getG();
	g = nc->a;
	/***SafeFlow Annotation assert(safe(v)) /***/
	writeDA(0, v);
}

int main()
{
	initComm();
	step();
	return 0;
}
`, 3, 2, 5, true},
		{"self-write", preamble + `
double acc;

void accumulate()
{
	acc = acc + nc->a;
}

int main()
{
	double u;
	initComm();
	accumulate();
	u = acc;
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, 2, 1, 2, true},
		{"fan-out", preamble + `
double g;
double h;

void w1() { g = nc->a; }
void w2() { h = nc->b; }
double r1() { return g; }
double r2() { return g + h; }

int main()
{
	double u;
	initComm();
	u = r1() + r2();
	w1();
	w2();
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, 5, 2, 8, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for _, w := range []int{1, 4} {
				r := runConfig(t, tc.src, Config{Workers: w})
				onlyError(t, r)
				if r.Rounds > tc.rounds || r.UnitsAnalyzed > tc.solves ||
					tc.exact && (r.Rounds != tc.rounds || r.UnitsAnalyzed != tc.solves) {
					t.Errorf("workers=%d: %d solves in %d rounds, want %d in %d (exact: %v)",
						w, r.UnitsAnalyzed, r.Rounds, tc.solves, tc.rounds, tc.exact)
				}
				if r.UnitsAnalyzed >= 2*tc.units {
					t.Errorf("workers=%d: %d solves re-solved every one of the %d units", w, r.UnitsAnalyzed, tc.units)
				}
				got := renderResult(r)
				if w == 1 {
					first = got
				} else if got != first {
					t.Errorf("workers=%d report differs from workers=1:\n%s\nvs\n%s", w, got, first)
				}
			}
		})
	}
}

// TestChecksumDetectsDamage: the state tier of a cache verifies a
// stored state by its Checksum, so truncating the state's memory cells
// or dropping a unit record must change it, while a state left alone
// keeps it.
func TestChecksumDetectsDamage(t *testing.T) {
	src := preamble + `
double acc;

void accumulate()
{
	acc = acc + nc->a;
}

int main()
{
	double u;
	initComm();
	accumulate();
	u = acc;
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`
	capture := func() *IncrState {
		st := runConfig(t, src, Config{Workers: 1, Incr: &IncrOptions{}}).NextIncr
		if st == nil || len(st.cells) == 0 || len(st.units) == 0 {
			t.Fatal("tracked run captured no cells or units")
		}
		return st
	}
	st := capture()
	sum := st.Checksum()
	if again := st.Checksum(); again != sum {
		t.Fatalf("checksum of an untouched state moved: %x vs %x", sum, again)
	}
	if other := capture().Checksum(); other != sum {
		t.Fatalf("checksums of two captures of one program differ: %x vs %x", sum, other)
	}
	st.cells = nil
	if st.Checksum() == sum {
		t.Error("dropping the memory cells left the checksum unchanged")
	}
	st = capture()
	for k := range st.units {
		delete(st.units, k)
		break
	}
	if st.Checksum() == sum {
		t.Error("dropping a unit record left the checksum unchanged")
	}
}
