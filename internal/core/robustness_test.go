package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"safeflow/internal/cpp"
	"safeflow/internal/irgen"
)

// progGen emits random programs in the SafeFlow C subset: a shared-memory
// region, a few helper functions with random expression/statement bodies,
// and a main that wires them together with random monitoring annotations.
// The property under test is total robustness: whatever the generator
// produces, the pipeline must terminate without panicking and classify
// every non-core read consistently.
type progGen struct {
	r  *rand.Rand
	sb strings.Builder
}

func (g *progGen) pick(options ...string) string { return options[g.r.Intn(len(options))] }

func (g *progGen) expr(depth int, vars []string) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d.%d", g.r.Intn(10), g.r.Intn(10))
		case 1:
			if len(vars) > 0 {
				return vars[g.r.Intn(len(vars))]
			}
			return "1.0"
		default:
			return g.pick("region->a", "region->b")
		}
	}
	op := g.pick("+", "-", "*")
	return fmt.Sprintf("(%s %s %s)", g.expr(depth-1, vars), op, g.expr(depth-1, vars))
}

func (g *progGen) cond(vars []string) string {
	return fmt.Sprintf("%s %s %s", g.expr(1, vars), g.pick("<", ">", "<=", ">=", "==", "!="), g.expr(1, vars))
}

func (g *progGen) stmts(depth int, vars []string) string {
	var sb strings.Builder
	n := 1 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		switch g.r.Intn(5) {
		case 0:
			if len(vars) > 0 {
				fmt.Fprintf(&sb, "%s = %s;\n", vars[g.r.Intn(len(vars))], g.expr(depth, vars))
			}
		case 1:
			if depth > 0 {
				fmt.Fprintf(&sb, "if (%s) {\n%s} else {\n%s}\n",
					g.cond(vars), g.stmts(depth-1, vars), g.stmts(depth-1, vars))
			}
		case 2:
			if depth > 0 && len(vars) > 0 {
				v := vars[g.r.Intn(len(vars))]
				fmt.Fprintf(&sb, "{ int qi; for (qi = 0; qi < %d; qi++) { %s = %s + 1.0; } }\n",
					1+g.r.Intn(5), v, v)
			}
		case 3:
			fmt.Fprintf(&sb, "printf(\"v=%%f\\n\", %s);\n", g.expr(1, vars))
		default:
			if len(vars) > 0 {
				fmt.Fprintf(&sb, "%s = helper%d(%s);\n",
					vars[g.r.Intn(len(vars))], g.r.Intn(3), g.expr(1, vars))
			}
		}
	}
	return sb.String()
}

func (g *progGen) generate() string {
	g.sb.Reset()
	g.sb.WriteString(`
typedef struct { double a; double b; int flag; int pad; } Region;
Region *region;

void initComm()
/***SafeFlow Annotation shminit /***/
{
	region = (Region *) shmat(shmget(9, sizeof(Region), 0), 0, 0);
	InitCheck(region, sizeof(Region));
	/***SafeFlow Annotation assume(shmvar(region, sizeof(Region))) /***/
	/***SafeFlow Annotation assume(noncore(region)) /***/
}
`)
	for i := 0; i < 3; i++ {
		monitored := g.r.Intn(2) == 0
		annot := ""
		if monitored {
			annot = "/***SafeFlow Annotation assume(core(region, 0, sizeof(Region))) /***/\n"
		}
		fmt.Fprintf(&g.sb, `
double helper%d(double x)
%s{
	double t;
	t = x;
	%s
	return t;
}
`, i, annot, g.stmts(2, []string{"t", "x"}))
	}
	fmt.Fprintf(&g.sb, `
int main()
{
	double u;
	double v;
	initComm();
	u = 0.0;
	v = 0.0;
	%s
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`, g.stmts(3, []string{"u", "v"}))
	return g.sb.String()
}

// TestPipelineRobustness runs many random programs through the full
// pipeline. The analysis must terminate, never panic, and obey the
// monitoring invariant: with every helper monitored and no direct region
// reads in main, there can be no warnings.
func TestPipelineRobustness(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := &progGen{r: rand.New(rand.NewSource(seed))}
		src := g.generate()
		rep, err := AnalyzeSources(context.Background(), fmt.Sprintf("fuzz-%d", seed), cpp.MapSource{"main.c": src}, []string{"main.c"}, Options{})
		if err != nil {
			t.Fatalf("seed %d: pipeline error: %v\nprogram:\n%s", seed, err, src)
		}
		// Structural validity of the lowered SSA.
		if verrs := irgen.Verify(rep.Module); len(verrs) > 0 {
			t.Fatalf("seed %d: invalid IR: %v\nprogram:\n%s", seed, verrs[0], src)
		}
		// Internal consistency: every error's sources must be among the
		// reported warnings.
		warnSet := map[string]bool{}
		for _, w := range rep.Warnings {
			warnSet[w.Pos.String()] = true
		}
		for _, e := range rep.ErrorsData {
			for _, s := range e.SortedSources() {
				if !warnSet[s.Pos.String()] {
					t.Errorf("seed %d: error cites unreported source %s", seed, s)
				}
			}
		}
		for _, e := range rep.ErrorsControlOnly {
			for _, s := range e.SortedSources() {
				if !warnSet[s.Pos.String()] {
					t.Errorf("seed %d: control report cites unreported source %s", seed, s)
				}
			}
		}
		// Monotonicity: the exponential variant agrees on counts (checked
		// on a sample; it is the expensive mode by design).
		if seed%4 != 0 {
			continue
		}
		rep2, err := AnalyzeSources(context.Background(), fmt.Sprintf("fuzz-%d-exp", seed), cpp.MapSource{"main.c": src}, []string{"main.c"}, Options{Exponential: true})
		if err != nil {
			t.Fatalf("seed %d: exponential error: %v", seed, err)
		}
		if len(rep2.Warnings) != len(rep.Warnings) ||
			rep2.TotalErrors() != rep.TotalErrors() {
			t.Errorf("seed %d: modes disagree (W %d/%d, E %d/%d)\nprogram:\n%s",
				seed, len(rep.Warnings), len(rep2.Warnings),
				rep.TotalErrors(), rep2.TotalErrors(), src)
		}
	}
}
