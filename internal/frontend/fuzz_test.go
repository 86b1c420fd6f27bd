package frontend_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/fuzzcamp"
	"safeflow/internal/report"
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
// pipeline: compilation and then full analysis, fail-stop and
// recovering. Each must reject bad input with an error or a degraded
// report — panics are the only failure mode — and the two modes must
// agree. Seeded with
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
		frontend.CheckSegmentParse(t, cpp.MapSource{
			"fuzz.h": src,
			"a.c":    "#include \"fuzz.h\"\n",
			"b.c":    "int b0;\n#include \"fuzz.h\"\nint b1;\n#include \"fuzz.h\"\n",
			"main.c": src,
		}, []string{"a.c", "b.c", "main.c", "a.c"})
		main := cpp.MapSource{"main.c": src}
		res, err := frontend.Compile(context.Background(), "fuzz", main, []string{"main.c"}, frontend.Options{})
		if err == nil && res == nil {
			t.Fatal("nil result without error")
		}
		// Fail-stop is recovery with the first failure made fatal: it
		// fails exactly when the recovering run fails or degrades, and
		// otherwise both render the same report.
		stop, stopErr := core.AnalyzeSources(context.Background(), "fuzz", main, []string{"main.c"}, core.Options{})
		if stopErr == nil && stop == nil {
			t.Fatal("nil report without error")
		}
		rec, recErr := core.AnalyzeSources(context.Background(), "fuzz", main, []string{"main.c"}, core.Options{Recover: true})
		if recErr == nil && rec == nil {
			t.Fatal("nil recovering report without error")
		}
		recFailed := recErr != nil || rec.Degraded
		if (stopErr != nil) != recFailed {
			t.Fatalf("fail-stop error %v, but recovering run error %v degraded %v",
				stopErr, recErr, recErr == nil && rec.Degraded)
		}
		if stopErr == nil {
			var a, b bytes.Buffer
			if err := report.WriteJSON(&a, stop); err != nil {
				t.Fatal(err)
			}
			if err := report.WriteJSON(&b, rec); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("fail-stop and recovering reports differ:\n--- fail-stop ---\n%s\n--- recovering ---\n%s", a.String(), b.String())
			}
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
			rr, err := frontend.CompileRecover(context.Background(), "fuzz", cpp.MapSource{"main.c": src}, []string{"main.c"}, frontend.Options{})
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
