package frontend

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"safeflow/internal/metrics"
)

const cacheTestSrc = `
int add(int a, int b) { return a + b; }
int main() { return add(1, 2); }
`

// compileCounting compiles main.c from the given sources and returns the
// frontend cache hit/miss counts the run recorded.
func compileCounting(t *testing.T, sources map[string]string, opts Options) (hits, misses int) {
	t.Helper()
	col := metrics.NewCollector()
	opts.Metrics = col
	if _, err := Compile(context.Background(), "cachetest", toSource(sources), []string{"main.c"}, opts); err != nil {
		t.Fatalf("compile: %v", err)
	}
	snap := col.Finish()
	return snap.FrontendCacheHits, snap.FrontendCacheMisses
}

func TestParseCacheReuse(t *testing.T) {
	sources := map[string]string{"main.c": cacheTestSrc}
	opts := Options{Cache: NewParseCache()}

	if hits, misses := compileCounting(t, sources, opts); hits != 0 || misses != 1 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/1", hits, misses)
	}
	if hits, misses := compileCounting(t, sources, opts); hits != 1 || misses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 1/0", hits, misses)
	}
}

// Editing a file (or a header it includes) must change the content key and
// force a fresh parse — the path alone is never the key.
func TestParseCacheContentKey(t *testing.T) {
	opts := Options{Cache: NewParseCache()}
	sources := map[string]string{
		"defs.h": "#define ANSWER 1\n",
		"main.c": "#include \"defs.h\"\nint main() { return ANSWER; }\n",
	}
	if hits, misses := compileCounting(t, sources, opts); hits != 0 || misses != 1 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/1", hits, misses)
	}

	// Same path, edited header: the preprocessed text differs → miss.
	sources["defs.h"] = "#define ANSWER 2\n"
	if hits, misses := compileCounting(t, sources, opts); hits != 0 || misses != 1 {
		t.Fatalf("edited run: hits=%d misses=%d, want 0/1", hits, misses)
	}

	// The edited parse must reflect the new contents, not the cached AST.
	res, err := Compile(context.Background(), "edited", toSource(sources), []string{"main.c"}, opts)
	if err != nil {
		t.Fatalf("compile after edit: %v", err)
	}
	if res.Module.FuncByName("main") == nil {
		t.Fatal("main missing after edit")
	}

	// Defines change the expanded text the same way an edit does.
	pc := NewParseCache()
	base := map[string]string{"main.c": "int main() { return X; }\n"}
	if _, misses := compileCounting(t, base, Options{Cache: pc, Defines: map[string]string{"X": "1"}}); misses != 1 {
		t.Fatal("first define run should miss")
	}
	if hits, _ := compileCounting(t, base, Options{Cache: pc, Defines: map[string]string{"X": "2"}}); hits != 0 {
		t.Fatal("changed define must not hit the cache")
	}
}

// A nil cache compiles cold and counts no cache traffic.
func TestParseCacheDisable(t *testing.T) {
	sources := map[string]string{"main.c": cacheTestSrc}
	for i := 0; i < 2; i++ {
		if hits, misses := compileCounting(t, sources, Options{}); hits != 0 || misses != 0 {
			t.Fatalf("run %d without a cache counted hits=%d misses=%d, want 0/0", i, hits, misses)
		}
	}
}

// A failed parse must never publish an entry: the next compile of the same
// contents has to re-parse and fail again, not hit a poisoned cache.
func TestParseCacheNoPoisonOnError(t *testing.T) {
	pc := NewParseCache()
	bad := map[string]string{"main.c": "int main( { return 0; }\n"}
	for i := 0; i < 2; i++ {
		col := metrics.NewCollector()
		if _, err := Compile(context.Background(), "bad", toSource(bad), []string{"main.c"}, Options{Cache: pc, Metrics: col}); err == nil {
			t.Fatalf("run %d: expected parse error", i)
		}
		snap := col.Finish()
		if snap.FrontendCacheHits != 0 {
			t.Fatalf("run %d: failed parse hit the cache (hits=%d)", i, snap.FrontendCacheHits)
		}
	}
}

// Cancellation stops the worker pool between units; units that never
// parsed must not appear in the cache, so a later un-cancelled run still
// parses (and counts) every unit.
func TestParseCacheNoPoisonOnCancel(t *testing.T) {
	opts := Options{Cache: NewParseCache()}
	sources := map[string]string{"main.c": cacheTestSrc}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compile(ctx, "cancelled", toSource(sources), []string{"main.c"}, opts); err != context.Canceled {
		t.Fatalf("cancelled compile err = %v, want context.Canceled", err)
	}
	if hits, misses := compileCounting(t, sources, opts); hits != 0 || misses != 1 {
		t.Fatalf("post-cancel run: hits=%d misses=%d, want 0/1 (cache must be empty)", hits, misses)
	}
}

// The cache stays bounded: inserting more than maxParseEntries distinct
// units evicts rather than grows.
func TestParseCacheBounded(t *testing.T) {
	pc := NewParseCache()
	FillParseCache(pc, maxParseEntries+16)
	if n := pc.Len(); n != maxParseEntries {
		t.Fatalf("cache holds %d entries, bound is %d", n, maxParseEntries)
	}
}

// parseCacheKey reads the expanded text in place: a key over a 448 KB
// text allocates exactly as often as a key over a one-line text, and no
// allocation it makes grows with the text.
func TestParseCacheKeyNoCopy(t *testing.T) {
	short := "int x;\n"
	long := strings.Repeat(short, 1<<16)
	allocs := func(text string) float64 {
		return testing.AllocsPerRun(50, func() { parseCacheKey("unit.c", text) })
	}
	if s, l := allocs(short), allocs(long); l != s || l > 1 {
		t.Errorf("parseCacheKey allocations: %v on a short text, %v on a long one; want at most 1 on both", s, l)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parseCacheKey("unit.c", long)
	}
	runtime.ReadMemStats(&after)
	if perKey := (after.TotalAlloc - before.TotalAlloc) / runs; perKey > 1024 {
		t.Errorf("parseCacheKey allocates %d bytes per key over a %d-byte text", perKey, len(long))
	}
}
