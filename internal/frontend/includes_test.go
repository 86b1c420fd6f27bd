package frontend

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"safeflow/internal/clex"
	"safeflow/internal/cpp"
	"safeflow/internal/ctoken"
)

// CheckSegmentLex expands the units through one shared include cache and
// requires, for each unit that preprocesses, the same text as a fresh
// preprocessor and — when its segments splice — the same tokens as a
// whole-buffer lex: kind, text, position and the final EOF, with the
// whole-buffer lex error-free. It returns how many units spliced.
// Exported for the fuzz targets in package frontend_test.
func CheckSegmentLex(t testing.TB, sources cpp.MapSource, cFiles []string) (spliced int) {
	t.Helper()
	ic := newIncludeCache()
	for _, cf := range cFiles {
		pp := newPreprocessor(sources, Options{}, ic)
		text, err := pp.Expand(cf)
		fresh, ferr := cpp.New(sources).Expand(cf)
		if text != fresh || (err == nil) != (ferr == nil) {
			t.Fatalf("%s: memoized expansion differs from a fresh one (err %v, fresh err %v)", cf, err, ferr)
		}
		if err != nil || len(pp.Segments()) == 0 {
			continue
		}
		toks, ok := ic.splice(cf, text, pp.Segments())
		if !ok {
			continue
		}
		spliced++
		lx := clex.New(cf, text)
		want := lx.All()
		if errs := lx.Errors(); len(errs) > 0 {
			t.Fatalf("%s: segments spliced but the whole buffer has lex errors: %v", cf, errs)
		}
		if i := firstTokenDiff(toks, want); i >= 0 {
			t.Fatalf("%s: spliced token %d differs: got %+v, whole-buffer %+v (of %d/%d)",
				cf, i, tokenAt(toks, i), tokenAt(want, i), len(toks), len(want))
		}
	}
	return spliced
}

// firstTokenDiff returns the index of the first differing token, or -1.
func firstTokenDiff(a, b []ctoken.Token) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func tokenAt(toks []ctoken.Token, i int) any {
	if i < len(toks) {
		return toks[i]
	}
	return "<none>"
}

// Where splicing cannot reproduce the whole-buffer lex — a block comment
// open across an include boundary, a lex error in a header — the unit is
// lexed whole: tokens and diagnostics equal a whole-buffer lex.
func TestSegmentLexFallback(t *testing.T) {
	cases := map[string]cpp.MapSource{
		"comment opened before include": {"h.h": "int h;\n", "a.c": "/* open\n#include \"h.h\"\n*/ int a;\n"},
		"comment opened in header":      {"h.h": "int h; /* open\n", "a.c": "#include \"h.h\"\n*/ int a;\n"},
		"comment never closed":          {"h.h": "int h;\n", "a.c": "#include \"h.h\"\nint a; /* open\n"},
		"lex error in header":           {"h.h": "int h = @;\n", "a.c": "#include \"h.h\"\nint a;\n"},
		"lex error in unit":             {"h.h": "int h;\n", "a.c": "#include \"h.h\"\nint a = `;\n"},
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			ic := newIncludeCache()
			for i := 0; i < 2; i++ { // a miss, then a hit
				pp := newPreprocessor(src, Options{}, ic)
				text, err := pp.Expand("a.c")
				if err != nil {
					t.Fatal(err)
				}
				if len(pp.Segments()) != 1 {
					t.Fatalf("segments = %d, want 1", len(pp.Segments()))
				}
				if _, ok := ic.splice("a.c", text, pp.Segments()); ok {
					t.Fatal("splice succeeded; want a whole-buffer fallback")
				}
				toks, errs := ic.lex("a.c", text, pp.Segments())
				lx := clex.New("a.c", text)
				if i := firstTokenDiff(toks, lx.All()); i >= 0 {
					t.Fatalf("fallback token %d differs from whole-buffer lex", i)
				}
				if fmt.Sprint(errs) != fmt.Sprint(lx.Errors()) {
					t.Fatalf("fallback errors %v, whole-buffer %v", errs, lx.Errors())
				}
			}
		})
	}
}

// Degraded compiles report the same diagnostics with the memo as when
// every unit is compiled on its own.
func TestIncludeMemoDegradedDiagnostics(t *testing.T) {
	src := cpp.MapSource{
		"h.h": "#ifdef BAD\n#error bad configuration\n#endif\nint h = `;\nint ok(int x);\n",
		"a.c": "#include \"h.h\"\nint ok(int x) { return x; }\n",
		"b.c": "#define BAD\n#include \"h.h\"\nint b;\n",
		"c.c": "#include \"h.h\"\nint c(void) { return ok(1); }\n",
		"d.c": "/* open\n#include \"h.h\"\n*/ int d;\n",
	}
	cFiles := []string{"a.c", "b.c", "c.c", "d.c"}
	rr, err := CompileRecover(context.Background(), "degraded", src, cFiles, Options{DisableParseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, cf := range cFiles {
		solo, err := CompileRecover(context.Background(), "solo", src, []string{cf}, Options{DisableParseCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range solo.Diags {
			want = append(want, d.String())
		}
	}
	var got []string
	for _, d := range rr.Diags {
		got = append(got, d.String())
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics with the memo:\n%s\nunit by unit:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// Test hooks for package frontend_test, which can import corpus (this
// package cannot: corpus imports core, which imports frontend).

// MaxParseEntries is the parse cache's capacity.
const MaxParseEntries = maxParseEntries

// FillParseCache stores n placeholder entries under keys no compile
// produces.
func FillParseCache(n int) {
	for i := 0; i < n; i++ {
		parseCachePut(parseCacheKey("placeholder.c", fmt.Sprint(i)), nil)
	}
}
