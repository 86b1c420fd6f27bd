package frontend_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"safeflow/internal/cpp"
	. "safeflow/internal/frontend"
)

// Header declarations shared by pointer across units give the
// diagnostics, dropped units and annotation lists that per-unit header
// parses gave, fail-stop and recovering. The wanted outcomes are those of
// the per-unit parse.
func TestSharedDeclDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  cpp.MapSource
		want string
	}{
		{"prototype conflicts with a definition", cpp.MapSource{
			"h.h": "int f(int x);\n",
			"a.c": "#include \"h.h\"\nint ga(void) { return f(1); }\n",
			"b.c": "#include \"h.h\"\ndouble f(double x) { return x; }\n",
			"c.c": "#include \"h.h\"\nint gc(void) { return f(2); }\n",
		}, "fail-stop: typecheck: b.c:2:8: conflicting declarations of function \"f\"\n" +
			"diag: b.c: [typecheck] b.c:2:8: conflicting declarations of function \"f\"\n" +
			"live: a.c c.c\n" +
			"func f int(int) defined=false annotations=0\n"},
		{"extern conflicts with a definition", cpp.MapSource{
			"h.h": "extern int g;\n",
			"a.c": "#include \"h.h\"\nint ga(void) { return g; }\n",
			"b.c": "#include \"h.h\"\ndouble g;\n",
			"c.c": "#include \"h.h\"\nint gc(void) { return g; }\n",
		}, "fail-stop: typecheck: b.c:2:8: conflicting declarations of global \"g\"\n" +
			"diag: b.c: [typecheck] b.c:2:8: conflicting declarations of global \"g\"\n" +
			"live: a.c c.c\n"},
		{"annotated prototype in a shared header", cpp.MapSource{
			"h.h": "/***SafeFlow Annotation shminit /***/\nvoid init(void);\nvoid plain(void);\n",
			"a.c": "#include \"h.h\"\nvoid init(void) { }\n",
			"b.c": "#include \"h.h\"\nint b;\n",
			"c.c": "#include \"h.h\"\nvoid plain(void) { }\n",
		}, "fail-stop: ok\n" +
			"live: a.c b.c c.c\n" +
			"func init void() defined=true annotations=3\n" +
			"func plain void() defined=true annotations=0\n"},
		{"function defined in a shared header", cpp.MapSource{
			"h.h": "#ifndef H\n#define H\nint twice(int x) { return x + x; }\n#endif\n",
			"a.c": "#include \"h.h\"\nint a;\n",
			"b.c": "#include \"h.h\"\nint b;\n",
			"c.c": "int c;\n",
		}, "fail-stop: typecheck: h.h:3:5: redefinition of function \"twice\"\n" +
			"diag: b.c: [typecheck] h.h:3:5: redefinition of function \"twice\"\n" +
			"live: a.c c.c\n" +
			"func twice int(int) defined=true annotations=0\n"},
		{"function with a body error defined in a shared header", cpp.MapSource{
			"h.h": "int bad(int x) { return x + missing; }\n",
			"a.c": "#include \"h.h\"\nint a;\n",
			"b.c": "#include \"h.h\"\nint b;\n",
			"c.c": "int c(void) { return bad(1); }\n",
		}, "fail-stop: typecheck: h.h:1:5: redefinition of function \"bad\"\nh.h:1:29: undeclared identifier \"missing\"\n" +
			"diag: a.c: [typecheck] h.h:1:29: undeclared identifier \"missing\"\n" +
			"diag: b.c: [typecheck] h.h:1:5: redefinition of function \"bad\"\n" +
			"diag: b.c: [typecheck] h.h:1:29: undeclared identifier \"missing\"\n" +
			"live: c.c\n" +
			"func bad int(...) defined=false annotations=0\n"},
	}
	cFiles := []string{"a.c", "b.c", "c.c"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			opts := Options{Workers: 1, DisableParseCache: true}
			if _, err := Compile(context.Background(), "shared", tc.src, cFiles, opts); err != nil {
				fmt.Fprintf(&sb, "fail-stop: %v\n", err)
			} else {
				sb.WriteString("fail-stop: ok\n")
			}
			rr, err := CompileRecover(context.Background(), "shared", tc.src, cFiles, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range rr.Diags {
				fmt.Fprintf(&sb, "diag: %s\n", d)
			}
			var live []string
			for _, f := range rr.Res.Prog.Files {
				live = append(live, f.Name)
			}
			fmt.Fprintf(&sb, "live: %s\n", strings.Join(live, " "))
			for _, name := range []string{"init", "plain", "f", "twice", "bad"} {
				if fn := rr.Res.Prog.FuncByName[name]; fn != nil {
					fmt.Fprintf(&sb, "func %s %s defined=%v annotations=%d\n", name, fn.Type, fn.IsDefined, len(fn.Annotations))
				}
			}
			if got := sb.String(); got != tc.want {
				t.Errorf("got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
