package frontend

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"safeflow/internal/cast"
	"safeflow/internal/cpp"
)

// CheckSegmentParse expands the units through one shared include cache
// and requires, for each unit that preprocesses, the same text as a
// fresh preprocessor and — when its segments parse piecewise — the same
// file as a whole-buffer lex and parse, byte for byte under cast.Encode
// (which covers every position), with the whole buffer free of errors.
// It returns how many units parsed piecewise. Exported for the fuzz
// targets in package frontend_test.
func CheckSegmentParse(t testing.TB, sources cpp.MapSource, cFiles []string) (piecewise int) {
	t.Helper()
	ic := newIncludeCache()
	for _, cf := range cFiles {
		pp := newPreprocessor(sources, Options{}, ic)
		text, err := pp.Expand(cf)
		fresh, ferr := cpp.New(sources).Expand(cf)
		if text != fresh || (err == nil) != (ferr == nil) {
			t.Fatalf("%s: memoized expansion differs from a fresh one (err %v, fresh err %v)", cf, err, ferr)
		}
		if err != nil {
			continue
		}
		f, ok := ic.parsePieces(cf, text, pp.Segments())
		if !ok {
			continue
		}
		piecewise++
		whole := parseWhole(cf, text)
		if whole.file == nil {
			t.Fatalf("%s: segments parsed piecewise but the whole buffer fails: %v", cf, whole.diags)
		}
		if got, want := encode(t, f), encode(t, whole.file); !bytes.Equal(got, want) {
			t.Fatalf("%s: piecewise file differs from a whole-buffer parse:\n%s\nwhole-buffer:\n%s", cf, cast.Print(f), cast.Print(whole.file))
		}
	}
	return piecewise
}

func encode(t testing.TB, f *cast.File) []byte {
	t.Helper()
	if f == nil {
		return nil
	}
	b, err := cast.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkFallback requires that a.c, compiled twice through one include
// cache (a memo miss, then a hit), does not parse piecewise and that its
// outcome — file, partial AST and diagnostics — equals a whole-buffer
// lex and parse.
func checkFallback(t *testing.T, src cpp.MapSource) {
	t.Helper()
	ic := newIncludeCache()
	for i := 0; i < 2; i++ {
		pp := newPreprocessor(src, Options{}, ic)
		text, err := pp.Expand("a.c")
		if err != nil {
			t.Fatal(err)
		}
		if len(pp.Segments()) != 1 {
			t.Fatalf("segments = %d, want 1", len(pp.Segments()))
		}
		if _, ok := ic.parsePieces("a.c", text, pp.Segments()); ok {
			t.Fatal("parsed piecewise; want a whole-buffer fallback")
		}
		got := parseUnit("a.c", text, pp.Segments(), [32]byte{}, Options{DisableParseCache: true}, ic)
		want := parseWhole("a.c", text)
		if !bytes.Equal(encode(t, got.file), encode(t, want.file)) || !bytes.Equal(encode(t, got.partial), encode(t, want.partial)) {
			t.Fatal("fallback AST differs from a whole-buffer parse")
		}
		if fmt.Sprint(got.diags) != fmt.Sprint(want.diags) {
			t.Fatalf("fallback diagnostics %v, whole-buffer %v", got.diags, want.diags)
		}
	}
}

// Where the pieces cannot be lexed on their own — a block comment open
// across an include boundary, a lex error in a header or the unit — the
// unit is lexed and parsed whole.
func TestSegmentLexFallback(t *testing.T) {
	cases := map[string]cpp.MapSource{
		"comment opened before include": {"h.h": "int h;\n", "a.c": "/* open\n#include \"h.h\"\n*/ int a;\n"},
		"comment opened in header":      {"h.h": "int h; /* open\n", "a.c": "#include \"h.h\"\n*/ int a;\n"},
		"comment never closed":          {"h.h": "int h;\n", "a.c": "#include \"h.h\"\nint a; /* open\n"},
		"lex error in header":           {"h.h": "int h = @;\n", "a.c": "#include \"h.h\"\nint a;\n"},
		"lex error in unit":             {"h.h": "int h;\n", "a.c": "#include \"h.h\"\nint a = `;\n"},
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { checkFallback(t, src) })
	}
}

// Where the pieces lex but do not parse on their own — an include inside
// a function body or a declaration, an annotation just before an include,
// a parse error in the header — the unit is parsed whole.
func TestSegmentParseFallback(t *testing.T) {
	cases := map[string]cpp.MapSource{
		"include in function body":   {"h.h": "x = 1;\n", "a.c": "int x;\nvoid f(void) {\n#include \"h.h\"\n}\n"},
		"include mid-declaration":    {"h.h": "int h;\n", "a.c": "extern\n#include \"h.h\"\nint a;\n"},
		"annotation before include":  {"h.h": "void init(void) { }\n", "a.c": "/***SafeFlow Annotation shminit /***/\n#include \"h.h\"\n"},
		"parse error in header":      {"h.h": "int h = ;\n", "a.c": "#include \"h.h\"\nint a;\n"},
		"header needs unit typedef":  {"h.h": "T h;\n", "a.c": "#include \"h.h\"\ntypedef int T;\n"},
		"declaration spans segments": {"h.h": "int h\n", "a.c": "#include \"h.h\"\n;\n"},
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { checkFallback(t, src) })
	}
}

// A segment is parsed once per typedef-name set it is entered with: a
// typedef before the include gives a second parse under its own key,
// units entering with the same set share one, and every unit's file
// equals a whole-buffer parse.
func TestSegmentParseTypedefKey(t *testing.T) {
	src := cpp.MapSource{
		"h.h": "#ifndef H\n#define H\ntypedef double R;\nextern R h;\nT t;\n#endif\n",
		"a.c": "typedef int T;\n#include \"h.h\"\nR a;\n",
		"b.c": "typedef long T;\n#include \"h.h\"\nT b;\n",
		"c.c": "#include \"h.h\"\nint c;\n",
		"d.c": "typedef int U;\ntypedef int T;\n#include \"h.h\"\n",
	}
	cFiles := []string{"a.c", "b.c", "c.c", "d.c"}
	if n := CheckSegmentParse(t, src, cFiles); n != 3 {
		t.Fatalf("%d units parsed piecewise, want 3 (c.c's header needs T)", n)
	}
	ic := newIncludeCache()
	header := make(map[string]cast.Decl)
	for _, cf := range cFiles {
		out := compileUnitDiags(src, cf, Options{DisableParseCache: true}, ic)
		if cf == "c.c" {
			if out.file != nil {
				t.Fatal("c.c compiled; want a parse error at T")
			}
			continue
		}
		if out.file == nil {
			t.Fatalf("%s: %v", cf, out.diags)
		}
		header[cf] = fromFile(out.file, "h.h")[0]
	}
	// {T} (a.c, b.c), {} (c.c) and {T, U} (d.c).
	if len(ic.segs) != 3 {
		t.Errorf("%d segment parses, want 3", len(ic.segs))
	}
	if header["a.c"] != header["b.c"] {
		t.Error("a.c and b.c enter the header with the same typedef names but do not share its nodes")
	}
	if header["a.c"] == header["d.c"] {
		t.Error("d.c enters the header with another typedef set but shares a.c's nodes")
	}
}

// fromFile returns f's declarations positioned in file name.
func fromFile(f *cast.File, name string) []cast.Decl {
	var ds []cast.Decl
	for _, d := range f.Decls {
		if d.Pos().File == name {
			ds = append(ds, d)
		}
	}
	return ds
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

// SegmentParses compiles the units one by one through one include cache,
// as a compile at one worker does, and returns how many segment parses
// the cache made.
func SegmentParses(sources cpp.MapSource, cFiles []string) int {
	ic := newIncludeCache()
	for _, cf := range cFiles {
		compileUnitDiags(sources, cf, Options{DisableParseCache: true}, ic)
	}
	return len(ic.segs)
}

// MaxParseEntries is the parse cache's capacity.
const MaxParseEntries = maxParseEntries

// FillParseCache stores n placeholder entries under keys no compile
// produces.
func FillParseCache(n int) {
	for i := 0; i < n; i++ {
		parseCachePut(parseCacheKey("placeholder.c", fmt.Sprint(i)), nil)
	}
}
