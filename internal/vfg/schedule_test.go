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
// stored verdict by its Checksum, so dropping a warning, an error's
// source or a warning's context, or moving a position, must change it,
// while a verdict left alone keeps it.
func TestChecksumDetectsDamage(t *testing.T) {
	capture := func() *Verdict {
		v := NewVerdict(runConfig(t, verdictSrc, Config{Workers: 1}))
		if len(v.warnings) < 2 || len(v.errors) == 0 || len(v.errors[0].srcs) == 0 || len(v.warnings[0].contexts) == 0 {
			t.Fatal("the run reported too little to damage")
		}
		return v
	}
	v := capture()
	sum := v.Checksum()
	if again := v.Checksum(); again != sum {
		t.Fatalf("checksum of an untouched verdict moved: %x vs %x", sum, again)
	}
	if other := capture().Checksum(); other != sum {
		t.Fatalf("checksums of two verdicts of one program differ: %x vs %x", sum, other)
	}
	for name, damage := range map[string]func(v *Verdict){
		"warning dropped":        func(v *Verdict) { v.warnings = v.warnings[1:] },
		"error source dropped":   func(v *Verdict) { v.errors[0].srcs = v.errors[0].srcs[1:] },
		"context dropped":        func(v *Verdict) { v.warnings[0].contexts = nil },
		"error line moved":       func(v *Verdict) { v.errors[0].pos.Line++ },
		"source kind weakened":   func(v *Verdict) { v.errors[0].srcs[0].k = KindCtrl },
		"unit count overwritten": func(v *Verdict) { v.units++ },
	} {
		v := capture()
		damage(v)
		if v.Checksum() == sum {
			t.Errorf("%s: checksum unchanged", name)
		}
	}
}
