package frontend_test

import (
	"context"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	. "safeflow/internal/frontend"
	"safeflow/internal/metrics"
)

func split130(seed int64) (cpp.MapSource, []string) {
	g := corpus.Split(corpus.Generate(seed, corpus.MaxShape))
	return cpp.MapSource(g.Sources), g.CFiles
}

// Every unit of every corpus system — the Table 1 systems, generated
// systems of several shapes, and the split 130-unit system — splices to
// exactly the whole-buffer token stream.
func TestSegmentLexCorpus(t *testing.T) {
	check := func(name string, src cpp.MapSource, cFiles []string) {
		if n := CheckSegmentLex(t, src, cFiles); n != len(cFiles) {
			t.Errorf("%s: %d of %d units spliced, want all", name, n, len(cFiles))
		}
	}
	for _, sys := range corpus.All() {
		src, err := sys.SourceMap()
		if err != nil {
			t.Fatal(err)
		}
		check(sys.Name, cpp.MapSource(src), sys.CFiles)
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, cfg := range []corpus.GenConfig{{}, {Regions: 3, Monitors: 4, Stages: 8, Depth: 3}} {
			g := corpus.Generate(seed, cfg)
			check(g.Name, cpp.MapSource(g.Sources), g.CFiles)
		}
	}
	src, cFiles := split130(1)
	if len(cFiles) != 130 {
		t.Fatalf("split system has %d units, want 130", len(cFiles))
	}
	check("split-130", src, cFiles)
}

// The split 130-unit system expands gen.h once per compile and serves
// the other 129 includes from the memo, on every compile path. With more
// workers, units that start before the first expansion is stored each
// expand it too: at most one miss per worker.
func TestIncludeMemoCompileCounts(t *testing.T) {
	src, cFiles := split130(2)
	for _, workers := range []int{1, 2, 8} {
		col := metrics.NewCollector()
		opts := Options{Workers: workers, Metrics: col, DisableParseCache: true}
		if _, err := Compile(context.Background(), "split", src, cFiles, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := CompileRecover(context.Background(), "split", src, cFiles, opts); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := NewFragmentCompiler("split", opts, nil).Compile(context.Background(), src, cFiles, col); !ok {
			t.Fatal("fragment compile failed")
		}
		m := col.Finish()
		if m.IncludeMemoHits+m.IncludeMemoMisses != 3*130 {
			t.Errorf("workers=%d: %d includes counted over three compiles, want %d",
				workers, m.IncludeMemoHits+m.IncludeMemoMisses, 3*130)
		}
		if workers == 1 && m.IncludeMemoMisses != 3 || m.IncludeMemoMisses > 3*workers {
			t.Errorf("workers=%d: include memo hits/misses = %d/%d over three compiles, want at most %d misses",
				workers, m.IncludeMemoHits, m.IncludeMemoMisses, 3*workers)
		}
	}
	// A unit without #include never touches the memo.
	col := metrics.NewCollector()
	if _, err := Compile(context.Background(), "plain", cpp.MapSource{"main.c": "int main() { return 0; }\n"}, []string{"main.c"}, Options{Metrics: col}); err != nil {
		t.Fatal(err)
	}
	if m := col.Finish(); m.IncludeMemoHits+m.IncludeMemoMisses != 0 {
		t.Errorf("include-free unit counted %d/%d memo hits/misses", m.IncludeMemoHits, m.IncludeMemoMisses)
	}
}

// The parse cache evicts least recently used entries: with the cache
// full of older entries, every unit of the last compile survives, and
// the corrupt/reset hooks behave as before.
func TestParseCacheLRU(t *testing.T) {
	ResetParseCache()
	defer ResetParseCache()
	FillParseCache(MaxParseEntries)
	src, cFiles := split130(3)
	compile := func() *metrics.RunMetrics {
		t.Helper()
		col := metrics.NewCollector()
		if _, err := Compile(context.Background(), "lru", src, cFiles, Options{Metrics: col}); err != nil {
			t.Fatal(err)
		}
		return col.Finish()
	}
	if m := compile(); m.FrontendCacheMisses != 130 {
		t.Fatalf("cold compile: %d misses, want 130", m.FrontendCacheMisses)
	}
	if n := ParseCacheLen(); n != MaxParseEntries {
		t.Fatalf("cache holds %d entries, want %d", n, MaxParseEntries)
	}
	if m := compile(); m.FrontendCacheHits != 130 || m.FrontendCacheMisses != 0 {
		t.Fatalf("repeat compile: hits/misses = %d/%d, want 130/0", m.FrontendCacheHits, m.FrontendCacheMisses)
	}
	// The most recently used entries are the system's own, so corrupting
	// five of them costs the next compile five evictions and re-parses.
	if n := CorruptParseCache(5); n != 5 {
		t.Fatalf("corrupted %d entries, want 5", n)
	}
	if m := compile(); m.CacheCorruptEvictions != 5 || m.FrontendCacheHits != 125 || m.FrontendCacheMisses != 5 {
		t.Fatalf("after corruption: evictions/hits/misses = %d/%d/%d, want 5/125/5",
			m.CacheCorruptEvictions, m.FrontendCacheHits, m.FrontendCacheMisses)
	}
	ResetParseCache()
	if n := ParseCacheLen(); n != 0 {
		t.Fatalf("reset left %d entries", n)
	}
	if m := compile(); m.FrontendCacheMisses != 130 {
		t.Fatalf("after reset: %d misses, want 130", m.FrontendCacheMisses)
	}
}
