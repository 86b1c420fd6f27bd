package frontend_test

import (
	"os"
	"path/filepath"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/fuzzcamp"
)

// campaignSeedTexts is the shared seed frontier with the sffuzz
// campaign (fuzzcamp.SeedInputs): the same generated systems seed both
// `go test -fuzz` and the mutation campaign, so a corpus file found
// interesting by one explores from the other's starting line.
func campaignSeedTexts() []string {
	var texts []string
	for _, in := range fuzzcamp.SeedInputs(1, 4) {
		for _, name := range in.Files() {
			texts = append(texts, in.Sources[name])
		}
	}
	return texts
}

// FuzzCompile feeds arbitrary C-subset sources through the whole
// pipeline: compilation and then full analysis. Both must reject bad
// input with an error — panics are the only failure mode. Seeded with
// every real program in the repository. Each input is also used as a
// header shared by several units, whose spliced segment tokens must
// equal a whole-buffer lex.
func FuzzCompile(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figure2.c")); err == nil {
		f.Add(string(data))
	}
	for _, sys := range corpus.All() {
		src, err := sys.SourceMap()
		if err != nil {
			f.Fatal(err)
		}
		for _, text := range src {
			f.Add(text)
		}
	}
	for _, text := range campaignSeedTexts() {
		f.Add(text)
	}
	for _, seed := range []string{
		"int main() { return 0; }",
		"double *p; int main() { return *p > 0.0; }",
		"/***SafeFlow Annotation shminit /***/ void f() {}",
		"int main() { /***SafeFlow Annotation assert(safe(x)) /***/ return 0; }",
		"struct S { int a; };",
		"#define X 1\nint main() { return X; }",
		"int f(", "}{", "", "\x00", "int a[;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		frontend.CheckSegmentLex(t, cpp.MapSource{
			"fuzz.h": src,
			"a.c":    "#include \"fuzz.h\"\n",
			"b.c":    "int b0;\n#include \"fuzz.h\"\nint b1;\n#include \"fuzz.h\"\n",
			"main.c": src,
		}, []string{"a.c", "b.c", "main.c", "a.c"})
		res, err := frontend.CompileString("fuzz", src, frontend.Options{})
		if err == nil && res == nil {
			t.Fatal("nil result without error")
		}
		rep, err := core.AnalyzeString("fuzz", src, core.Options{})
		if err == nil && rep == nil {
			t.Fatal("nil report without error")
		}
	})
}

// FuzzParseRecovery feeds arbitrary sources through the recovering
// front end. The recovering path must never panic, and its structured
// diagnostics must be byte-stable: two compilations of the same input
// produce identical diagnostic lists (the degraded-report determinism
// guarantee starts here).
func FuzzParseRecovery(f *testing.F) {
	for _, text := range campaignSeedTexts() {
		f.Add(text)
	}
	for _, seed := range []string{
		"int main() { return 0; }",
		"int main( { return 0; }",
		"char *s = \"unterminated;\nint x = @;",
		"double f() { return g; }\nint main() { return 0; }",
		"void v() { return 1.0; }",
		"int f(", "}{", "", "\x00", "int a[;",
		"/***SafeFlow Annotation assume(bogus(x)) /***/ void f() {}",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		render := func() string {
			rr, err := frontend.CompileRecover("fuzz", cpp.MapSource{"main.c": src}, []string{"main.c"},
				frontend.Options{DisableParseCache: true})
			if err != nil {
				return "error: " + err.Error()
			}
			if rr.Res == nil {
				t.Fatal("nil result without error")
			}
			out := ""
			for _, d := range rr.Diags {
				out += d.String() + "\n"
			}
			return out
		}
		first, second := render(), render()
		if first != second {
			t.Fatalf("recovering diagnostics unstable across runs:\n--- first:\n%s\n--- second:\n%s", first, second)
		}
	})
}
