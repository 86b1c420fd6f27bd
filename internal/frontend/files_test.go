package frontend

import (
	"context"
	"crypto/sha256"
	"maps"
	"sort"
	"testing"

	"safeflow/internal/cpp"
	"safeflow/internal/metrics"
)

// filesSystem has three units that share a guarded header, which pulls in
// a nested one, and headers behind #ifdef, #ifndef/#else and "#if 0";
// unused.h is included by nothing.
var filesSystem = cpp.MapSource{
	"a.c":      "#include \"h.h\"\n#ifdef DEBUG\n#include \"dbg.h\"\n#endif\nint a(void) { return H; }\n",
	"b.c":      "#include \"h.h\"\n#ifndef DEBUG\n#include \"rel.h\"\n#else\n#include \"dbg.h\"\n#endif\n#if 0\n#include \"never.h\"\n#endif\nint b(void) { return H; }\n",
	"c.c":      "#include \"h.h\"\n#include \"h.h\"\nint c(void) { return H; }\n",
	"h.h":      "#ifndef H_H\n#define H_H\n#include \"n.h\"\n#endif\n",
	"n.h":      "#define H 1\n",
	"dbg.h":    "int dbg;\n",
	"rel.h":    "int rel;\n",
	"never.h":  "int never;\n",
	"unused.h": "int unused;\n",
}

// TestFilesRead: a compile's Files are exactly the files its
// preprocessors read, with their text — the units, the headers of the
// groups the defines select, and the headers nested in a memoized one,
// which a memo hit reads again — at every worker count and with or
// without a module tier. A fragment compile reads the same files, and
// each of its units' expansions depends on the nested header even when
// the unit took the header from the memo.
func TestFilesRead(t *testing.T) {
	cFiles := []string{"a.c", "b.c", "c.c"}
	for _, tc := range []struct {
		name    string
		defines map[string]string
		want    []string
	}{
		{"no defines", nil, []string{"a.c", "b.c", "c.c", "h.h", "n.h", "rel.h"}},
		{"DEBUG", map[string]string{"DEBUG": "1"}, []string{"a.c", "b.c", "c.c", "dbg.h", "h.h", "n.h"}},
	} {
		want := make(map[string]string, len(tc.want))
		for _, name := range tc.want {
			want[name] = filesSystem[name]
		}
		for _, workers := range []int{1, 2, 4} {
			for _, tiers := range []bool{false, true} {
				opts := Options{Defines: tc.defines, Workers: workers}
				if tiers {
					opts.Cache, opts.Modules = NewParseCache(), NewModuleCache()
				}
				for run := 0; run < 2; run++ { // with tiers, the second run hits the module tier
					rr, err := CompileWith(context.Background(), "sys", filesSystem, cFiles, opts, true)
					if err != nil {
						t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
					}
					if !maps.Equal(rr.Files, want) {
						t.Errorf("%s, %d workers, tiers %v, run %d: read %v, want %v", tc.name, workers, tiers, run, names(rr.Files), tc.want)
					}
					if (rr.Key != [sha256.Size]byte{}) != tiers {
						t.Errorf("%s, %d workers, tiers %v: key %x", tc.name, workers, tiers, rr.Key)
					}
				}
			}
		}

		fc := NewFragmentCompiler("sys", Options{Defines: tc.defines}, nil)
		col := metrics.NewCollector()
		if _, _, ok := fc.Compile(context.Background(), filesSystem, cFiles, col); !ok {
			t.Fatalf("%s: fragment compile failed", tc.name)
		}
		if got := fc.Files(); !maps.Equal(got, want) {
			t.Errorf("%s: fragment compile read %v, want %v", tc.name, names(got), tc.want)
		}
		if m := col.Finish(); m.IncludeMemoHits == 0 {
			t.Errorf("%s: no unit took h.h from the memo", tc.name)
		}
		for _, cf := range cFiles {
			if _, ok := fc.expansions[cf].deps["n.h"]; !ok {
				t.Errorf("%s: %s's expansion does not depend on n.h", tc.name, cf)
			}
		}
	}
}

// TestFilesKeyFollowsReads: the module key changes with a header a unit
// reads and with a define that pulls one in, and not with a header no
// unit reads.
func TestFilesKeyFollowsReads(t *testing.T) {
	cFiles := []string{"a.c", "b.c", "c.c"}
	key := func(src cpp.MapSource, defines map[string]string) [sha256.Size]byte {
		t.Helper()
		rr, err := CompileWith(context.Background(), "sys", src, cFiles, Options{Defines: defines, Modules: NewModuleCache()}, true)
		if err != nil {
			t.Fatal(err)
		}
		return rr.Key
	}
	edit := func(file string) cpp.MapSource {
		src := maps.Clone(filesSystem)
		src[file] += "int edited;\n"
		return src
	}
	base := key(filesSystem, nil)
	for _, tc := range []struct {
		name    string
		src     cpp.MapSource
		defines map[string]string
		same    bool
	}{
		{"unread header edited", edit("dbg.h"), nil, true},
		{"never-read header edited", edit("never.h"), nil, true},
		{"unincluded header edited", edit("unused.h"), nil, true},
		{"read header edited", edit("rel.h"), nil, false},
		{"nested header edited", edit("n.h"), nil, false},
		{"define pulls a header in", filesSystem, map[string]string{"DEBUG": "1"}, false},
	} {
		if got := key(tc.src, tc.defines); (got == base) != tc.same {
			t.Errorf("%s: key unchanged = %v, want %v", tc.name, got == base, tc.same)
		}
	}
}

func names(files map[string]string) []string {
	out := make([]string, 0, len(files))
	for name := range files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
