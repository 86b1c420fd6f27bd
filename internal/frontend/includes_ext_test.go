package frontend_test

import (
	"context"
	"fmt"
	"testing"

	"safeflow/internal/cast"
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
// systems of several shapes, and the split 130-unit systems of seeds 1–3
// — parses piecewise to exactly the whole-buffer file.
func TestSegmentParseCorpus(t *testing.T) {
	check := func(name string, src cpp.MapSource, cFiles []string) {
		if n := CheckSegmentParse(t, src, cFiles); n != len(cFiles) {
			t.Errorf("%s: %d of %d units parsed piecewise, want all", name, n, len(cFiles))
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
	for seed := int64(1); seed <= 3; seed++ {
		src, cFiles := split130(seed)
		if len(cFiles) != 130 {
			t.Fatalf("split system has %d units, want 130", len(cFiles))
		}
		check(fmt.Sprintf("split-130 seed %d", seed), src, cFiles)
	}
}

// One sequential compile of the split 130-unit system parses gen.h once,
// and every unit's file holds the same header declaration nodes.
func TestSegmentSharedNodes(t *testing.T) {
	src, cFiles := split130(1)
	res, err := Compile(context.Background(), "split", src, cFiles, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	files := res.Prog.Files
	if len(files) != 130 {
		t.Fatalf("%d files, want 130", len(files))
	}
	var header []cast.Decl
	for _, d := range files[0].Decls {
		if d.Pos().File == "gen.h" {
			header = append(header, d)
		}
	}
	if len(header) < 100 {
		t.Fatalf("%d header declarations in %s, want the whole of gen.h", len(header), files[0].Name)
	}
	for _, f := range files[1:] {
		if len(f.Decls) < len(header) {
			t.Fatalf("%s: %d declarations, fewer than gen.h's %d", f.Name, len(f.Decls), len(header))
		}
		for i, d := range header {
			if f.Decls[i] != d {
				t.Fatalf("%s: header declaration %d is not shared with %s", f.Name, i, files[0].Name)
			}
		}
	}
	if n := SegmentParses(src, cFiles); n != 1 {
		t.Errorf("%d segment parses in one compile, want 1", n)
	}
}

// The split 130-unit system expands gen.h once per compile and serves
// the other 129 includes from the memo, on every compile path. With more
// workers, units that start before the first expansion is stored each
// expand it too: at most one miss per worker.
func TestIncludeMemoCompileCounts(t *testing.T) {
	src, cFiles := split130(2)
	for _, workers := range []int{1, 2, 8} {
		col := metrics.NewCollector()
		opts := Options{Workers: workers, Metrics: col}
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
// full of older entries, every unit of the last compile survives, and a
// damaged entry is evicted and re-parsed.
func TestParseCacheLRU(t *testing.T) {
	pc := NewParseCache()
	FillParseCache(pc, MaxParseEntries)
	src, cFiles := split130(3)
	compile := func() *metrics.RunMetrics {
		t.Helper()
		col := metrics.NewCollector()
		if _, err := Compile(context.Background(), "lru", src, cFiles, Options{Cache: pc, Metrics: col}); err != nil {
			t.Fatal(err)
		}
		return col.Finish()
	}
	if m := compile(); m.FrontendCacheMisses != 130 {
		t.Fatalf("cold compile: %d misses, want 130", m.FrontendCacheMisses)
	}
	if n := pc.Len(); n != MaxParseEntries {
		t.Fatalf("cache holds %d entries, want %d", n, MaxParseEntries)
	}
	if m := compile(); m.FrontendCacheHits != 130 || m.FrontendCacheMisses != 0 {
		t.Fatalf("repeat compile: hits/misses = %d/%d, want 130/0", m.FrontendCacheHits, m.FrontendCacheMisses)
	}
	// The most recently used entries are the system's own, so corrupting
	// five of them costs the next compile five evictions and re-parses.
	if n := pc.Corrupt(5); n != 5 {
		t.Fatalf("corrupted %d entries, want 5", n)
	}
	if m := compile(); m.CacheCorruptEvictions != 5 || m.FrontendCacheHits != 125 || m.FrontendCacheMisses != 5 {
		t.Fatalf("after corruption: evictions/hits/misses = %d/%d/%d, want 5/125/5",
			m.CacheCorruptEvictions, m.FrontendCacheHits, m.FrontendCacheMisses)
	}
	// A new cache shares nothing with the old one.
	pc = NewParseCache()
	if m := compile(); m.FrontendCacheMisses != 130 {
		t.Fatalf("new cache: %d misses, want 130", m.FrontendCacheMisses)
	}
}
