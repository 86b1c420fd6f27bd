package vfg_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/ir"
	"safeflow/internal/irgen"
	"safeflow/internal/vfg"
)

// hashSystem is one program the body-hash tests compile.
type hashSystem struct {
	name    string
	sources map[string]string
	cFiles  []string
}

func split130(seed int64) corpus.Generated {
	return corpus.Split(corpus.Generate(seed, corpus.MaxShape))
}

// hashSystems lists the Table 1 systems, split 130-TU seeds 1-3 and those
// systems after a seeded edit script.
func hashSystems(t *testing.T) []hashSystem {
	t.Helper()
	var out []hashSystem
	for _, cs := range corpus.All() {
		src, err := cs.SourceMap()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, hashSystem{cs.Name, src, cs.CFiles})
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := split130(seed)
		out = append(out, hashSystem{g.Name, g.Sources, g.CFiles})
		gen := corpus.Generate(seed, corpus.MaxShape)
		src, ok := corpus.GenerateEdits(gen, seed, 8).ApplyAll(gen.Sources)
		if !ok {
			t.Fatalf("seed %d: edit script did not apply", seed)
		}
		gen.Sources = src
		e := corpus.Split(gen)
		out = append(out, hashSystem{e.Name + "-edited", e.Sources, e.CFiles})
	}
	return out
}

func compile(t *testing.T, s hashSystem, disableParseCache bool) *irgen.Result {
	t.Helper()
	res, err := frontend.Compile(context.Background(), s.name, cpp.MapSource(s.sources), s.cFiles,
		frontend.Options{DisableParseCache: disableParseCache})
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return res
}

// positions renders every instruction's source position in order.
func positions(fn *ir.Function) string {
	var b strings.Builder
	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			b.WriteString(in.Pos().String())
			b.WriteByte(';')
		}
	}
	return b.String()
}

// TestCompileDeterministicIR compiles split 130-TU seed 1 four times,
// with the parse cache alternately on and off: every function must print
// identically and hash identically. The hash is taken before the first
// print and again after it, since printing assigns SSA names.
func TestCompileDeterministicIR(t *testing.T) {
	frontend.ResetParseCache()
	t.Cleanup(frontend.ResetParseCache)
	g := split130(1)
	s := hashSystem{g.Name, g.Sources, g.CFiles}
	printed := make(map[string]string)
	hashes := make(map[string]uint64)
	for i := 0; i < 4; i++ {
		res := compile(t, s, i%2 == 1)
		for _, fn := range res.Module.Funcs {
			if fn.IsDecl {
				continue
			}
			h := vfg.HashFunctionBody(fn, res.AssertVars)
			text := fn.String()
			if again := vfg.HashFunctionBody(fn, res.AssertVars); again != h {
				t.Fatalf("compile %d: %s hashes differently after printing", i, fn.Name)
			}
			if i == 0 {
				printed[fn.Name], hashes[fn.Name] = text, h
				continue
			}
			if text != printed[fn.Name] {
				t.Errorf("compile %d: %s prints differently:\n%s\nfirst compile:\n%s", i, fn.Name, text, printed[fn.Name])
			}
			if h != hashes[fn.Name] {
				t.Errorf("compile %d: %s hashes differently", i, fn.Name)
			}
		}
	}
}

// TestHashFunctionBodyExact checks that the structural hash is exact on
// the corpus: across every function of every system, equal hashes mean
// equal printed IR and equal instruction positions, and identical
// compiles — whole-module or fragment — give equal hashes.
func TestHashFunctionBodyExact(t *testing.T) {
	seen := make(map[uint64]string) // hash -> printed IR and positions
	check := func(where string, fn *ir.Function, h uint64) {
		t.Helper()
		content := fn.String() + "\n" + positions(fn)
		if prev, ok := seen[h]; ok && prev != content {
			t.Errorf("%s: %s shares hash %#x with a function that prints or is placed differently:\n%s\nvs\n%s",
				where, fn.Name, h, content, prev)
		}
		seen[h] = content
	}
	for _, s := range hashSystems(t) {
		whole := compile(t, s, true)
		want := make(map[string]uint64)
		for _, fn := range whole.Module.Funcs {
			if fn.IsDecl {
				continue
			}
			want[fn.Name] = vfg.HashFunctionBody(fn, whole.AssertVars)
		}
		again := compile(t, s, true)
		for _, fn := range again.Module.Funcs {
			if fn.IsDecl {
				continue
			}
			h := vfg.HashFunctionBody(fn, again.AssertVars)
			if h != want[fn.Name] {
				t.Errorf("%s: %s hashes differently on an identical compile", s.name, fn.Name)
			}
			check(s.name, fn, h)
		}

		fc := frontend.NewFragmentCompiler(s.name, frontend.Options{DisableParseCache: true}, vfg.HashFunctionBody)
		res, frag, ok := fc.Compile(context.Background(), cpp.MapSource(s.sources), s.cFiles, nil)
		if !ok {
			t.Fatalf("%s: fragment compile declined", s.name)
		}
		if len(frag) != len(want) {
			t.Errorf("%s: fragments hashed %d functions, whole module %d", s.name, len(frag), len(want))
		}
		for _, fn := range res.Module.Funcs {
			if fn.IsDecl {
				continue
			}
			h, ok := frag[fn.Name]
			if !ok || h != want[fn.Name] {
				t.Errorf("%s: %s: fragment hash %#x (present %v), whole-module hash %#x",
					s.name, fn.Name, h, ok, want[fn.Name])
			}
			check(fmt.Sprintf("%s (fragment)", s.name), fn, h)
		}
	}
	if len(seen) < 400 {
		t.Errorf("only %d distinct hashes over the corpus; the systems did not compile as expected", len(seen))
	}
}
