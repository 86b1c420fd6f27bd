package cpp

import (
	"fmt"
	"sync"
	"testing"
)

// memoUnit is one translation unit of a memo test: its name and its -D
// predefines.
type memoUnit struct {
	name    string
	defines map[string]string
}

func expandWith(src Source, u memoUnit, memo *Memo) (*Preprocessor, string, string) {
	pp := New(src)
	if memo != nil {
		pp.UseMemo(memo)
	}
	for k, v := range u.defines {
		pp.Define(k, v)
	}
	text, err := pp.Expand(u.name)
	return pp, text, fmt.Sprint(err, pp.Errors())
}

// checkMemoMatchesFresh expands the units in order through one shared
// memo and each through a fresh preprocessor, and requires byte-identical
// text and diagnostics. Every reported segment must cover exactly its
// expansion's text.
func checkMemoMatchesFresh(t *testing.T, src MapSource, units ...memoUnit) *Memo {
	t.Helper()
	memo := NewMemo()
	for _, u := range units {
		_, want, wantErrs := expandWith(src, u, nil)
		pp, got, gotErrs := expandWith(src, u, memo)
		if got != want {
			t.Errorf("%s: memo text differs from a fresh expansion\n--- memo:\n%s--- fresh:\n%s", u.name, got, want)
		}
		if gotErrs != wantErrs {
			t.Errorf("%s: memo diagnostics %s, fresh %s", u.name, gotErrs, wantErrs)
		}
		for _, sg := range pp.Segments() {
			if got[sg.Start:sg.End] != sg.Exp.Text {
				t.Errorf("%s: segment [%d,%d) does not hold %s's expansion", u.name, sg.Start, sg.End, sg.Exp.Name)
			}
		}
	}
	return memo
}

func wantStats(t *testing.T, memo *Memo, hits, misses int) {
	t.Helper()
	if h, m := memo.Stats(); h != hits || m != misses {
		t.Errorf("memo hits/misses = %d/%d, want %d/%d", h, m, hits, misses)
	}
}

func unit(name string) memoUnit { return memoUnit{name: name} }

// Two units entering a header with different #defines get different
// expansions; a third unit repeating the first unit's state hits.
func TestIncludeMemoDefineBeforeInclude(t *testing.T) {
	src := MapSource{
		"h.h": "#ifdef FAST\nint mode = 1;\n#else\nint mode = 0;\n#endif\nint level = LEVEL;\n#define AFTER 9\n",
		"a.c": "#define FAST\n#define LEVEL 2\n#include \"h.h\"\nint a = AFTER;\n",
		"b.c": "#define LEVEL 3\n#include \"h.h\"\nint b = AFTER;\n",
		"c.c": "#define FAST\n#define LEVEL 2\n#include \"h.h\"\nint c = AFTER + LEVEL;\n",
	}
	memo := checkMemoMatchesFresh(t, src, unit("a.c"), unit("b.c"), unit("c.c"))
	wantStats(t, memo, 1, 2)
}

// -D predefines are part of the entry #define set.
func TestIncludeMemoCommandLineDefines(t *testing.T) {
	src := MapSource{
		"h.h": "int x = X;\n",
		"a.c": "#include \"h.h\"\n",
		"b.c": "#include \"h.h\"\nint b;\n",
	}
	d1, d2 := map[string]string{"X": "1"}, map[string]string{"X": "2"}
	memo := checkMemoMatchesFresh(t, src,
		memoUnit{"a.c", d1}, memoUnit{"b.c", d2}, memoUnit{"b.c", d1}, memoUnit{"a.c", d2})
	wantStats(t, memo, 2, 2)
}

// A header that includes its includer is a recursion error in that
// includer; an expansion stored from another unit must not hide it.
func TestIncludeMemoHeaderIncludesIncluder(t *testing.T) {
	src := MapSource{
		"h.h": "#ifndef H\n#define H\n#include \"b.c\"\nint h;\n#endif\n",
		"a.c": "#include \"h.h\"\nint a;\n",
		"b.c": "#include \"h.h\"\nint b;\n",
	}
	// a.c stores h.h and the b.c it includes (2 misses); in b.c both are
	// on the stack, so both are expanded again and fail (2 misses); the
	// second a.c hits.
	memo := checkMemoMatchesFresh(t, src, unit("a.c"), unit("b.c"), unit("a.c"))
	wantStats(t, memo, 1, 4)
	// The erroring unit first: nothing is stored from it.
	memo = checkMemoMatchesFresh(t, src, unit("b.c"), unit("b.c"), unit("a.c"))
	wantStats(t, memo, 0, 6)

	// Unguarded self-inclusion errors in every unit and is never stored.
	self := MapSource{"h.h": "#include \"h.h\"\n", "a.c": "#include \"h.h\"\n", "b.c": "#include \"h.h\"\n"}
	memo = checkMemoMatchesFresh(t, self, unit("a.c"), unit("b.c"))
	if h, _ := memo.Stats(); h != 0 {
		t.Errorf("recursive header was served from the memo %d times", h)
	}
}

// #error diagnostics are recomputed in every unit that triggers them.
func TestIncludeMemoErrorDirective(t *testing.T) {
	src := MapSource{
		"h.h": "#ifdef BAD\n#error bad configuration\n#endif\nint h;\n",
		"a.c": "#define BAD\n#include \"h.h\"\n",
		"b.c": "#include \"h.h\"\n",
		"c.c": "#define BAD\n#include \"h.h\"\nint c;\n",
		"e.h": "#error always\n",
		"d.c": "#include \"e.h\"\n",
		"m.h": "#include \"missing.h\"\n",
		"f.c": "#include \"m.h\"\n",
	}
	memo := checkMemoMatchesFresh(t, src, unit("a.c"), unit("b.c"), unit("c.c"), unit("b.c"),
		unit("d.c"), unit("d.c"), unit("f.c"), unit("f.c"))
	wantStats(t, memo, 1, 7)
}

// An #include in a dead branch never reaches the memo.
func TestIncludeMemoDeadInclude(t *testing.T) {
	src := MapSource{
		"h.h": "int h;\n",
		"a.c": "#if 0\n#include \"h.h\"\n#include \"missing.h\"\n#endif\nint a;\n",
	}
	memo := checkMemoMatchesFresh(t, src, unit("a.c"), unit("a.c"))
	wantStats(t, memo, 0, 0)
	pp, _, _ := expandWith(src, unit("a.c"), memo)
	if len(pp.Segments()) != 0 {
		t.Errorf("dead include produced segments: %v", pp.Segments())
	}
}

// Include guards are part of the entry state, nested headers are
// re-read on reuse, and only the outermost memoized include is a
// segment.
func TestIncludeMemoGuardsAndNesting(t *testing.T) {
	src := MapSource{
		"inner.h": "#ifndef INNER\n#define INNER\nint inner;\n#endif\n",
		"outer.h": "#ifndef OUTER\n#define OUTER\n#include \"inner.h\"\nint outer;\n#endif\n",
		"a.c":     "#include \"outer.h\"\n#include \"outer.h\"\n#include \"inner.h\"\nint a;\n",
		"b.c":     "#include \"inner.h\"\n#include \"outer.h\"\nint b;\n",
		"c.c":     "#include \"outer.h\"\nint c;\n",
	}
	memo := checkMemoMatchesFresh(t, src, unit("a.c"), unit("b.c"), unit("c.c"))
	// a.c: outer and the inner nested in it miss; b.c: inner (entered
	// without outer's define and guard) and outer (entered with inner's)
	// miss; c.c: outer hits.
	wantStats(t, memo, 1, 4)
	pp, _, _ := expandWith(src, unit("c.c"), memo)
	if segs := pp.Segments(); len(segs) != 1 || segs[0].Exp.Name != "outer.h" {
		t.Errorf("c.c segments = %+v, want one outer.h segment", segs)
	}

	// A changed nested header invalidates the stored outer expansion.
	edited := MapSource{}
	for k, v := range src {
		edited[k] = v
	}
	edited["inner.h"] = "#ifndef INNER\n#define INNER\nint inner2;\n#endif\n"
	_, got, _ := expandWith(edited, unit("c.c"), memo)
	_, want, _ := expandWith(edited, unit("c.c"), nil)
	if got != want {
		t.Errorf("stale nested header served from the memo:\n%s", got)
	}
}

// A header served from the memo inside another header's expansion adds
// its own nesting to the outer entry's depth, so reusing the outer entry
// near the include-depth limit reports the same "include depth exceeds"
// diagnostic as a fresh preprocessor.
func TestIncludeMemoNestedHitDepth(t *testing.T) {
	// chain links name0.h -> name1.h -> ... -> name(n-1).h -> last.
	chain := func(src MapSource, name string, n int, last string) {
		for i := 0; i < n; i++ {
			next := last
			if i+1 < n {
				next = fmt.Sprintf("%s%d.h", name, i+1)
			}
			src[fmt.Sprintf("%s%d.h", name, i)] = fmt.Sprintf("#include %q\nint %s%d;\n", next, name, i)
		}
	}
	for lead := 40; lead < maxIncludeDepth; lead++ {
		src := MapSource{
			"leaf.h": "int leaf;\n",
			"a.c":    "#include \"inner0.h\"\n",
			"b.c":    "#include \"outer0.h\"\n",
			"c.c":    "#include \"lead0.h\"\n",
		}
		chain(src, "inner", 10, "leaf.h")
		chain(src, "outer", 5, "inner0.h")
		chain(src, "lead", lead, "outer0.h")
		// a.c stores the inner chain; b.c hits it inside the outer chain's
		// expansion; c.c reuses the outer chain lead levels deep.
		memo := checkMemoMatchesFresh(t, src, unit("a.c"), unit("b.c"), unit("c.c"))
		if h, _ := memo.Stats(); h == 0 {
			t.Fatalf("lead %d: the inner chain was never served from the memo", lead)
		}
	}
}

// Preprocessors sharing one memo concurrently match a fresh expansion,
// and only units that start before the first expansion is stored miss:
// at most one per worker.
func TestIncludeMemoConcurrent(t *testing.T) {
	src := MapSource{"h.h": "#ifndef H\n#define H\n#define N 4\nint h[N];\n#endif\n"}
	const units, workers = 64, 4
	next := make(chan memoUnit, units)
	for i := 0; i < units; i++ {
		name := fmt.Sprintf("u%d.c", i)
		src[name] = fmt.Sprintf("#include \"h.h\"\nint u%d = N;\n", i)
		next <- unit(name)
	}
	close(next)
	memo := NewMemo()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				_, got, _ := expandWith(src, u, memo)
				if _, want, _ := expandWith(src, u, nil); got != want {
					t.Errorf("%s differs from a fresh expansion", u.name)
				}
			}
		}()
	}
	wg.Wait()
	if h, m := memo.Stats(); h+m != units || m < 1 || m > workers {
		t.Errorf("memo hits/misses = %d/%d, want %d in all with 1..%d misses", h, m, units, workers)
	}
}
