package csema

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"safeflow/internal/cast"
	"safeflow/internal/clex"
	"safeflow/internal/cparse"
)

// sharedUnit is one translation unit of a shared-header system: its own
// text before the header's include, then after it.
type sharedUnit struct{ name, pre, post string }

// buildUnits parses each unit as pre, header, post. With share, the
// header is parsed once per typedef-name set on entry and its nodes are
// appended to every unit, as the front end does; without, every unit
// gets its own copy, as a per-unit parse does.
func buildUnits(t *testing.T, header string, units []sharedUnit, share bool) []*cast.File {
	t.Helper()
	parse := func(name, text string, typedefs map[string]bool) ([]cast.Decl, map[string]bool) {
		lx := clex.New(name, text)
		toks := lx.All()
		if errs := lx.Errors(); len(errs) > 0 {
			t.Fatalf("lex %s: %v", name, errs)
		}
		decls, exit, errs := cparse.ParseDecls(toks, typedefs)
		if len(errs) > 0 {
			t.Fatalf("parse %s: %v", name, errs)
		}
		return decls, exit
	}
	type parsed struct {
		decls []cast.Decl
		exit  map[string]bool
	}
	cache := make(map[string]parsed)
	var files []*cast.File
	for _, u := range units {
		decls, tds := parse(u.name, u.pre, nil)
		key := fmt.Sprint(tds)
		h, ok := cache[key]
		if !ok || !share {
			h.decls, h.exit = parse("h.h", header, tds)
			cache[key] = h
		}
		post, _ := parse(u.name, u.post, h.exit)
		decls = append(append(decls, h.decls...), post...)
		files = append(files, &cast.File{Name: u.name, Decls: decls})
	}
	return files
}

// programSummary renders what AnalyzeUnits decided: per-file errors,
// warnings, and every global and function with its type, definition
// state and annotation count.
func programSummary(prog *Program, perFile []ErrorList) string {
	var sb strings.Builder
	for i, errs := range perFile {
		for _, e := range errs {
			fmt.Fprintf(&sb, "error %d: %s\n", i, e)
		}
	}
	for _, w := range prog.Warnings {
		fmt.Fprintf(&sb, "warning: %s\n", w)
	}
	var lines []string
	for _, g := range prog.Globals {
		lines = append(lines, fmt.Sprintf("global %s %s", g.Name, g.Type))
	}
	for _, fn := range prog.Funcs {
		if !fn.IsBuiltin {
			lines = append(lines, fmt.Sprintf("func %s %s defined=%v annotations=%d", fn.Name, fn.Type, fn.IsDefined, len(fn.Annotations)))
		}
	}
	sort.Strings(lines)
	sb.WriteString(strings.Join(lines, "\n"))
	return sb.String()
}

// Collecting a shared header declaration once gives the program, the
// errors and their attribution that per-unit copies give — including
// where the shared node's type resolves differently in a later unit.
func TestSharedDeclCollection(t *testing.T) {
	cases := []struct {
		name, header string
		units        []sharedUnit
		wantErrs     int
	}{
		{"prototype conflicts with a definition", "int f(int x);\n", []sharedUnit{
			{"a.c", "", "int ga(void) { return f(1); }\n"},
			{"b.c", "", "double f(double x) { return x; }\n"},
			{"c.c", "", "int gc(void) { return f(2); }\n"},
		}, 1},
		{"extern conflicts with a definition", "extern int g;\n", []sharedUnit{
			{"a.c", "", "int ga(void) { return g; }\n"},
			{"b.c", "", "double g;\n"},
			{"c.c", "", "int gc(void) { return g; }\n"},
		}, 1},
		{"annotated prototype", "/***SafeFlow Annotation shminit /***/\nvoid init(void);\nvoid plain(void);\n", []sharedUnit{
			{"a.c", "", "void init(void) { }\n"},
			{"b.c", "", ""},
			{"c.c", "", "/***SafeFlow Annotation shminit /***/\nvoid plain(void) { }\n"},
		}, 0},
		{"header definition in two units", "int twice(int x) { return x + 1; }\n", []sharedUnit{
			{"a.c", "", ""},
			{"b.c", "", ""},
		}, 1},
		{"header definition with a body error", "int bad(int x) { return x + missing; }\n", []sharedUnit{
			{"a.c", "", ""},
			{"b.c", "", "int other(void) { return 0; }\n"},
			{"c.c", "", ""},
		}, 3},
		{"typedef redefined before the include", "extern T x;\nT fx(T v);\n", []sharedUnit{
			{"a.c", "typedef int T;\n", ""},
			{"b.c", "typedef int T;\n", ""},
			{"c.c", "typedef double T;\n", ""},
			{"d.c", "typedef int T;\n", ""},
		}, 2},
		{"enumerator changes an array length", "extern int arr[N];\n", []sharedUnit{
			{"a.c", "enum { N = 2 };\n", ""},
			{"b.c", "enum { N = 3 };\n", ""},
			{"c.c", "enum { N = 2 };\n", ""},
		}, 1},
		{"struct redefined before the include", "extern struct S s;\n", []sharedUnit{
			{"a.c", "struct S { int a; };\n", ""},
			{"b.c", "struct S { double d; };\n", ""},
			{"c.c", "", ""},
		}, 3},
		{"forward struct completed later", "struct P;\nextern char buf[sizeof(struct P) + 1];\n", []sharedUnit{
			{"a.c", "", "struct P { double d; };\n"},
			{"b.c", "", ""},
		}, 1},
		{"builtin overridden by the header", "double sqrt(double x);\nint usleep(int us);\n", []sharedUnit{
			{"a.c", "", "int ga(void) { return usleep(1); }\n"},
			{"b.c", "", "double gb(void) { return sqrt(2.0); }\n"},
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := programSummary(AnalyzeUnits(buildUnits(t, tc.header, tc.units, false)))
			got := programSummary(AnalyzeUnits(buildUnits(t, tc.header, tc.units, true)))
			if got != want {
				t.Fatalf("shared nodes:\n%s\nper-unit copies:\n%s", got, want)
			}
			if n := strings.Count(want, "error "); n != tc.wantErrs {
				t.Fatalf("%d errors, want %d:\n%s", n, tc.wantErrs, want)
			}
		})
	}
}

// Repeats of a shared header's prototypes and globals are not collected
// again: 40 units sharing 100 of them allocate a fraction of what 40
// per-unit copies do.
func TestSharedDeclSkipsRepeats(t *testing.T) {
	var header strings.Builder
	header.WriteString("typedef struct { double a; int b; } R;\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&header, "extern R *r%d;\ndouble m%d(double x, R *r);\n", i, i)
	}
	var units []sharedUnit
	for i := 0; i < 40; i++ {
		units = append(units, sharedUnit{name: fmt.Sprintf("u%d.c", i), post: fmt.Sprintf("double u%d(void) { return m%d(1.0, r%d); }\n", i, i, i)})
	}
	shared := buildUnits(t, header.String(), units, true)
	copied := buildUnits(t, header.String(), units, false)
	if want, got := programSummary(AnalyzeUnits(copied)), programSummary(AnalyzeUnits(shared)); got != want {
		t.Fatalf("shared nodes:\n%s\nper-unit copies:\n%s", got, want)
	}
	s := testing.AllocsPerRun(5, func() { AnalyzeUnits(shared) })
	c := testing.AllocsPerRun(5, func() { AnalyzeUnits(copied) })
	if s > c/3 {
		t.Errorf("shared nodes: %.0f allocs per run, per-unit copies %.0f; want at most a third", s, c)
	}
	t.Logf("allocs per run: shared %.0f, copies %.0f", s, c)
}

// Programs built from files that share an annotated prototype keep their
// own annotation lists: appending a definition's annotations never
// writes into the shared node's array.
func TestSharedDeclAnnotationsNotAliased(t *testing.T) {
	header := "/***SafeFlow Annotation shminit /***/\n/***SafeFlow Annotation shminit /***/\n/***SafeFlow Annotation shminit /***/\nvoid init(void);\n"
	files := buildUnits(t, header, []sharedUnit{
		{"a.c", "", "/***SafeFlow Annotation a /***/\nvoid init(void) { }\n"},
		{"b.c", "", "/***SafeFlow Annotation b /***/\nvoid init(void) { }\n"},
	}, true)
	a, err := Analyze(files[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(files[1:]); err != nil {
		t.Fatal(err)
	}
	annots := a.FuncByName["init"].Annotations
	if len(annots) != 4 || strings.TrimSpace(annots[3].Body) != "a" {
		t.Fatalf("a.c's annotations = %+v, want three from the header then a", annots)
	}
}
