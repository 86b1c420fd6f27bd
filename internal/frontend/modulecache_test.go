package frontend

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"safeflow/internal/ir"
	"safeflow/internal/metrics"
)

// A clean recovering compile and a clean fail-stop compile of the same
// sources build the same module, so they share one module tier entry;
// another system name, another unit order or a unit that fails to parse
// compiles its own module.
func TestModuleCacheShared(t *testing.T) {
	src := toSource(map[string]string{
		"a.c":   "int twice(int x) { return 2 * x; }\n",
		"b.c":   "int twice(int x);\nint main() { return twice(3); }\n",
		"bad.c": "int main( {\n",
	})
	opts := Options{Cache: NewParseCache(), Modules: NewModuleCache()}
	ctx := context.Background()
	rr, err := CompileRecover(ctx, "sys", src, []string{"a.c", "b.c"}, opts)
	if err != nil || rr.Degraded() {
		t.Fatalf("recovering compile: err %v, degraded %v", err, rr != nil && rr.Degraded())
	}
	stored := rr.Res.Module
	res, err := Compile(ctx, "sys", src, []string{"a.c", "b.c"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Module != stored {
		t.Error("a fail-stop compile of the sources a recovering compile stored compiled a new module")
	}
	if len(res.AssertVars) != len(rr.Res.AssertVars) {
		t.Errorf("a hit returned %d assert names, want %d", len(res.AssertVars), len(rr.Res.AssertVars))
	}
	for _, tc := range []struct {
		name   string
		system string
		files  []string
	}{
		{"another system name", "other", []string{"a.c", "b.c"}},
		{"another unit order", "sys", []string{"b.c", "a.c"}},
	} {
		res, err := Compile(ctx, tc.system, src, tc.files, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Module == stored {
			t.Errorf("%s: reused the module of sys [a.c b.c]", tc.name)
		}
	}
	before := opts.Modules.Len()
	rr, err = CompileRecover(ctx, "sys", src, []string{"a.c", "b.c", "bad.c"}, opts)
	if err != nil || !rr.Degraded() {
		t.Fatalf("compile with bad.c: err %v, degraded %v", err, rr != nil && rr.Degraded())
	}
	if rr.Res.Module == stored || opts.Modules.Len() != before {
		t.Errorf("degraded compile: reused %v, tier %d entries (was %d)", rr.Res.Module == stored, opts.Modules.Len(), before)
	}
}

// A module whose shape changed after it was stored — a function's blocks
// or instructions, or its function list — fails its integrity sum: the
// lookup evicts it, counts it corrupt and compiles afresh.
func TestModuleCacheDamageEvicts(t *testing.T) {
	src := toSource(map[string]string{"main.c": cacheTestSrc})
	for _, damage := range []struct {
		name string
		do   func(m *ir.Module)
	}{
		{"block dropped", func(m *ir.Module) {
			for _, f := range m.Funcs {
				if len(f.Blocks) > 0 {
					f.Blocks = f.Blocks[:len(f.Blocks)-1]
					return
				}
			}
		}},
		{"instructions renumbered", func(m *ir.Module) {
			for _, f := range m.Funcs {
				if len(f.Blocks) > 0 {
					f.Blocks[0].Instrs = f.Blocks[0].Instrs[:0]
					f.NumberValues()
					return
				}
			}
		}},
		{"function dropped", func(m *ir.Module) { m.Funcs = m.Funcs[1:] }},
	} {
		opts := Options{Cache: NewParseCache(), Modules: NewModuleCache()}
		res, err := Compile(context.Background(), "sys", src, []string{"main.c"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		damage.do(res.Module)
		col := metrics.NewCollector()
		opts.Metrics = col
		again, err := Compile(context.Background(), "sys", src, []string{"main.c"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.Module == res.Module {
			t.Errorf("%s: the damaged module was returned", damage.name)
		}
		if n := col.Finish().CacheCorruptEvictions; n != 1 {
			t.Errorf("%s: cache_corrupt_evictions = %d, want 1", damage.name, n)
		}
		if opts.Modules.Len() != 1 {
			t.Errorf("%s: the recompiled module was not stored", damage.name)
		}
	}
}

// The module tier holds at most maxModules small modules, and a module
// larger than its bound is not stored.
func TestModuleCacheBound(t *testing.T) {
	opts := Options{Cache: NewParseCache(), Modules: NewModuleCache()}
	src := toSource(map[string]string{"main.c": cacheTestSrc})
	for i := 0; i < maxModules+3; i++ {
		if _, err := Compile(context.Background(), fmt.Sprintf("sys%d", i), src, []string{"main.c"}, opts); err != nil {
			t.Fatal(err)
		}
	}
	if n := opts.Modules.Len(); n != maxModules {
		t.Errorf("tier holds %d small modules, want %d", n, maxModules)
	}

	var big strings.Builder
	for i := 0; i <= maxModuleInstrs/2; i++ { // two instructions each
		fmt.Fprintf(&big, "int f%d(int x) { return x + %d; }\n", i, i)
	}
	opts.Modules = NewModuleCache()
	res, err := Compile(context.Background(), "big", toSource(map[string]string{"big.c": big.String()}), []string{"big.c"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w := moduleWeight(&CompiledModule{Module: res.Module}); w <= maxModuleInstrs || opts.Modules.Len() != 0 {
		t.Errorf("a module of %d instructions: tier holds %d modules, want 0 (bound %d)", w, opts.Modules.Len(), maxModuleInstrs)
	}
}
