package cpp

import (
	"strings"
	"testing"
)

func expand(t *testing.T, sources map[string]string, top string) string {
	t.Helper()
	pp := New(MapSource(sources))
	out, err := pp.Expand(top)
	if err != nil {
		t.Fatalf("expand: %v (all: %v)", err, pp.Errors())
	}
	return out
}

func TestObjectMacroSubstitution(t *testing.T) {
	out := expand(t, map[string]string{
		"a.c": "#define N 10\nint a[N];\nint NN;\nchar *s = \"N\";\n",
	}, "a.c")
	if !strings.Contains(out, "int a[10];") {
		t.Errorf("macro not substituted:\n%s", out)
	}
	if !strings.Contains(out, "int NN;") {
		t.Errorf("identifier boundary violated:\n%s", out)
	}
	if !strings.Contains(out, `"N"`) {
		t.Errorf("macro substituted inside string:\n%s", out)
	}
}

func TestMacroChaining(t *testing.T) {
	out := expand(t, map[string]string{
		"a.c": "#define A 1\n#define B A\nint x = B;\n",
	}, "a.c")
	// One level per line pass: B expands to A on its defining line, so B's
	// value is "A"; uses of B then substitute "A"... the recorded value was
	// already substituted when #define B A was processed.
	if !strings.Contains(out, "int x = 1;") {
		t.Errorf("chained macro:\n%s", out)
	}
}

func TestInclude(t *testing.T) {
	out := expand(t, map[string]string{
		"main.c": "#include \"h.h\"\nint y = K;\n",
		"h.h":    "#define K 7\nint declared;\n",
	}, "main.c")
	if !strings.Contains(out, "int declared;") || !strings.Contains(out, "int y = 7;") {
		t.Errorf("include failed:\n%s", out)
	}
	if !strings.Contains(out, `#line 1 "h.h"`) {
		t.Errorf("missing line directive for include:\n%s", out)
	}
	if !strings.Contains(out, `#line 2 "main.c"`) {
		t.Errorf("missing line directive resuming main.c:\n%s", out)
	}
}

func TestIncludeGuard(t *testing.T) {
	out := expand(t, map[string]string{
		"main.c": "#include \"h.h\"\n#include \"h.h\"\n",
		"h.h":    "#ifndef H_H\n#define H_H\nint once;\n#endif\n",
	}, "main.c")
	if strings.Count(out, "int once;") != 1 {
		t.Errorf("guarded header included %d times:\n%s", strings.Count(out, "int once;"), out)
	}
}

func TestSystemIncludeIgnored(t *testing.T) {
	out := expand(t, map[string]string{
		"main.c": "#include <stdio.h>\nint x;\n",
	}, "main.c")
	if !strings.Contains(out, "int x;") {
		t.Errorf("program body lost:\n%s", out)
	}
}

func TestConditionals(t *testing.T) {
	src := `#define YES 1
#ifdef YES
int a;
#else
int b;
#endif
#ifndef NO
int c;
#else
int d;
#endif
#if 0
int e;
#endif
`
	out := expand(t, map[string]string{"a.c": src}, "a.c")
	for _, want := range []string{"int a;", "int c;"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	for _, absent := range []string{"int b;", "int d;", "int e;"} {
		if strings.Contains(out, absent) {
			t.Errorf("unexpected %q:\n%s", absent, out)
		}
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#ifdef MISSING
#ifdef ALSO
int a;
#endif
int b;
#else
int c;
#endif
`
	out := expand(t, map[string]string{"a.c": src}, "a.c")
	if strings.Contains(out, "int a;") || strings.Contains(out, "int b;") {
		t.Errorf("dead branch emitted:\n%s", out)
	}
	if !strings.Contains(out, "int c;") {
		t.Errorf("live branch missing:\n%s", out)
	}
}

func TestUndef(t *testing.T) {
	src := "#define X 1\n#undef X\n#ifdef X\nint a;\n#endif\nint b;\n"
	out := expand(t, map[string]string{"a.c": src}, "a.c")
	if strings.Contains(out, "int a;") {
		t.Errorf("undef ignored:\n%s", out)
	}
}

func TestLineContinuation(t *testing.T) {
	src := "#define LONG 12\\\n34\nint x = LONG;\n"
	out := expand(t, map[string]string{"a.c": src}, "a.c")
	if !strings.Contains(out, "int x = 1234;") {
		t.Errorf("continuation failed:\n%s", out)
	}
}

func TestPredefine(t *testing.T) {
	pp := New(MapSource{"a.c": "int x = FOO;\n"})
	pp.Define("FOO", "99")
	out, err := pp.Expand("a.c")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int x = 99;") {
		t.Errorf("predefine failed:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	tests := []struct {
		name string
		srcs map[string]string
		want string
	}{
		{"missing include", map[string]string{"a.c": `#include "nope.h"`}, "cannot include"},
		{"recursive include", map[string]string{
			"a.c": `#include "b.h"`, "b.h": `#include "b.h"`,
		}, "recursive include"},
		{"function-like macro", map[string]string{"a.c": "#define F(x) x\n"}, "function-like"},
		{"unterminated conditional", map[string]string{"a.c": "#ifdef A\nint x;\n"}, "unterminated conditional"},
		{"stray else", map[string]string{"a.c": "#else\n"}, "#else without"},
		{"stray endif", map[string]string{"a.c": "#endif\n"}, "#endif without"},
		{"error directive", map[string]string{"a.c": "#error nope\n"}, "#error"},
		{"unknown directive", map[string]string{"a.c": "#frobnicate\n"}, "unsupported"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pp := New(MapSource(tc.srcs))
			_, err := pp.Expand("a.c")
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestErrorInDeadBranchIgnored(t *testing.T) {
	src := "#ifdef MISSING\n#error should not fire\n#endif\nint x;\n"
	out := expand(t, map[string]string{"a.c": src}, "a.c")
	if !strings.Contains(out, "int x;") {
		t.Errorf("body missing:\n%s", out)
	}
}

func TestLineCommentNotSubstituted(t *testing.T) {
	src := "#define V 5\nint x = V; // V stays here\n"
	out := expand(t, map[string]string{"a.c": src}, "a.c")
	if !strings.Contains(out, "// V stays here") {
		t.Errorf("comment text altered:\n%s", out)
	}
	if !strings.Contains(out, "int x = 5;") {
		t.Errorf("code not substituted:\n%s", out)
	}
}

// A comment after an "#if" value is no part of it: "#if 0 // x" drops
// its group, the code and the include alike, and "#if 1 // x" keeps
// both. The preprocessor and QuotedIncludes, which source scans use to
// follow the files the preprocessor reads, must agree on every form.
func TestIfValueTrailingComment(t *testing.T) {
	for _, tc := range []struct {
		cond string
		live bool
	}{
		{"0 // disabled", false},
		{"0 /* off */", false},
		{"0/* off */ // twice", false},
		{"0 /* left open", false},
		{"/* off */ 0", false},
		{"0", false},
		{"1 // enabled", true},
		{"1 /* on */", true},
		{"1", true},
		{"0 1", true}, // not the literal 0
	} {
		src := map[string]string{
			"a.c": "#if " + tc.cond + "\n#include \"h.h\"\nint dead;\n#endif\nint kept;\n",
			"h.h": "int fromHeader;\n",
		}
		out := expand(t, src, "a.c")
		for _, decl := range []string{"int dead;", "int fromHeader;"} {
			if got := strings.Contains(out, decl); got != tc.live {
				t.Errorf("#if %s: output has %q = %v, want %v:\n%s", tc.cond, decl, got, tc.live, out)
			}
		}
		if !strings.Contains(out, "int kept;") {
			t.Errorf("#if %s: code after #endif dropped:\n%s", tc.cond, out)
		}
		if got := len(QuotedIncludes(src["a.c"])) == 1; got != tc.live {
			t.Errorf("#if %s: QuotedIncludes = %q, want the include followed = %v", tc.cond, QuotedIncludes(src["a.c"]), tc.live)
		}
	}
}
