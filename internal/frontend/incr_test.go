package frontend

import (
	"fmt"
	"maps"

	"safeflow/internal/ir"
)

// LinkTable returns the slot table fc's last link used, as an opaque
// identity: two calls return the same value while the table is reused.
func LinkTable(fc *FragmentCompiler) any { return fc.table }

// CheckLastLink compares fc's last linked module with a full link of the
// same fragments — a slot table built from scratch — and returns the
// first difference: the global and function objects and their order,
// every operand's target, the functions' module, AssertVars and the body
// hashes.
func CheckLastLink(fc *FragmentCompiler) error {
	if fc.lastRes == nil {
		return fmt.Errorf("no successful last link")
	}
	frags := fc.table.from
	full := newLinkTable(frags)
	if !full.ok {
		return fmt.Errorf("a full link of the same fragments fails its gates")
	}
	m := fc.lastRes.Module
	if len(m.Globals) != len(full.globals) || len(m.Funcs) != len(full.funcs) {
		return fmt.Errorf("module has %d globals and %d functions, a full link %d and %d",
			len(m.Globals), len(m.Funcs), len(full.globals), len(full.funcs))
	}
	for i, g := range m.Globals {
		if want := full.global(frags, i); g != want {
			return fmt.Errorf("global slot %d holds %s, a full link %s", i, g.Name, want.Name)
		}
	}
	for i, fn := range m.Funcs {
		if want := full.fn(frags, i); fn != want {
			return fmt.Errorf("function slot %d holds %s, a full link %s", i, fn.Name, want.Name)
		}
		if fn.Module != m {
			return fmt.Errorf("function %s belongs to another module", fn.Name)
		}
	}
	for _, fn := range m.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				ops := in.Operands()
				if c, ok := in.(*ir.Call); ok {
					ops = append([]ir.Value{c.Callee}, ops...)
				}
				for _, v := range ops {
					switch x := v.(type) {
					case *ir.Function:
						if m.FuncByName(x.Name) != x {
							return fmt.Errorf("%s: operand %s is not the module's function", fn.Name, x.Name)
						}
					case *ir.Global:
						if m.GlobalByName(x.Name) != x {
							return fmt.Errorf("%s: operand %s is not the module's global", fn.Name, x.Name)
						}
					}
				}
			}
		}
	}
	asserts := make(map[*ir.Call]string)
	hashes := make(map[string]uint64)
	for _, f := range frags {
		maps.Copy(asserts, f.res.AssertVars)
		maps.Copy(hashes, f.bodyHashes)
	}
	if !maps.Equal(asserts, fc.lastRes.AssertVars) {
		return fmt.Errorf("AssertVars differ from the fragments' union")
	}
	if !maps.Equal(hashes, fc.lastHashes) {
		return fmt.Errorf("body hashes differ from the fragments' union")
	}
	return nil
}
