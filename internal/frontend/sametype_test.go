package frontend

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"safeflow/internal/ctypes"
)

// renderType spells a type out in full, cutting a struct met again inside
// its own expansion to its keyword and tag: two types are structurally
// identical exactly when their renderings are equal.
func renderType(t ctypes.Type, expanding map[*ctypes.Struct]bool) string {
	switch x := t.(type) {
	case nil:
		return "<nil>"
	case *ctypes.Basic:
		return x.String()
	case *ctypes.Pointer:
		return "*" + renderType(x.Elem, expanding)
	case *ctypes.Array:
		return fmt.Sprintf("[%d]%s", x.Len, renderType(x.Elem, expanding))
	case *ctypes.Struct:
		kw := "struct"
		if x.IsUnion {
			kw = "union"
		}
		if expanding[x] {
			return kw + " " + x.Tag
		}
		if expanding == nil {
			expanding = make(map[*ctypes.Struct]bool)
		}
		expanding[x] = true
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s{", kw, x.Tag)
		for _, fld := range x.Fields {
			fmt.Fprintf(&b, "%s@%d:%s;", fld.Name, fld.Offset, renderType(fld.Type, expanding))
		}
		b.WriteByte('}')
		delete(expanding, x)
		return b.String()
	case *ctypes.Func:
		var b strings.Builder
		b.WriteString("func(")
		for _, p := range x.Params {
			b.WriteString(renderType(p, expanding))
			b.WriteByte(',')
		}
		if x.Variadic {
			b.WriteString("...")
		}
		b.WriteString(")" + renderType(x.Result, expanding))
		return b.String()
	}
	panic(fmt.Sprintf("renderType: %T", t))
}

// randTypes builds a small universe of types from seed: structs and
// unions over a pool of three tags whose fields point at one another
// (cycles of every length), arrays, and function types. Two universes
// from one seed are identical in structure and share no struct object.
func randTypes(seed int64) []ctypes.Type {
	r := rand.New(rand.NewSource(seed))
	structs := make([]*ctypes.Struct, 2+r.Intn(3))
	for i := range structs {
		structs[i] = &ctypes.Struct{Tag: []string{"a", "b", "c"}[r.Intn(3)], IsUnion: r.Intn(5) == 0}
	}
	basics := []ctypes.Type{ctypes.IntType, ctypes.CharType, ctypes.DoubleType}
	var leaf func(depth int) ctypes.Type
	leaf = func(depth int) ctypes.Type {
		switch k := r.Intn(6); {
		case k < 2 || depth > 2:
			return basics[r.Intn(len(basics))]
		case k == 2:
			return &ctypes.Pointer{Elem: structs[r.Intn(len(structs))]}
		case k == 3:
			return &ctypes.Array{Elem: leaf(depth + 1), Len: int64(1 + r.Intn(2))}
		case k == 4:
			return &ctypes.Pointer{Elem: leaf(depth + 1)}
		default:
			return structs[r.Intn(len(structs))]
		}
	}
	for _, st := range structs {
		off := int64(0)
		for n := r.Intn(3); n > 0; n-- {
			ft := leaf(1)
			if inner, ok := ft.(*ctypes.Struct); ok && inner == st {
				ft = &ctypes.Pointer{Elem: st}
			}
			st.Fields = append(st.Fields, ctypes.Field{Name: []string{"x", "y"}[r.Intn(2)], Type: ft, Offset: off})
			off += int64(4 * r.Intn(2))
		}
	}
	out := make([]ctypes.Type, 0, len(structs)+4)
	for _, st := range structs {
		out = append(out, st)
	}
	for n := 0; n < 4; n++ {
		f := &ctypes.Func{Result: leaf(1), Variadic: r.Intn(4) == 0}
		for p := r.Intn(3); p > 0; p-- {
			f.Params = append(f.Params, leaf(1))
		}
		out = append(out, f, leaf(0))
	}
	return out
}

// sameType agrees with rendering on every pair drawn from random
// universes, each built twice so identical structure meets distinct
// struct objects.
func TestSameTypeMatchesRendering(t *testing.T) {
	var all []ctypes.Type
	for seed := int64(0); seed < 30; seed++ {
		all = append(all, randTypes(seed)...)
		all = append(all, randTypes(seed)...)
	}
	equal := 0
	for _, a := range all {
		ra := renderType(a, nil)
		for _, b := range all {
			want := ra == renderType(b, nil)
			if got := sameType(a, b); got != want {
				t.Fatalf("sameType = %v, renderings equal = %v:\n%s\n%s", got, want, ra, renderType(b, nil))
			}
			if want && a != b {
				equal++
			}
		}
	}
	if equal == 0 {
		t.Fatal("no structurally equal pair of distinct objects was compared")
	}
}

// The cycle cut: a list node whose next field points at itself equals a
// second copy, and differs from one whose cycle closes one level later
// through a struct of the same tag.
func TestSameTypeCycles(t *testing.T) {
	node := func() *ctypes.Struct {
		s := &ctypes.Struct{Tag: "node"}
		s.Fields = []ctypes.Field{{Name: "v", Type: ctypes.IntType}, {Name: "next", Type: &ctypes.Pointer{Elem: s}, Offset: 4}}
		return s
	}
	a, b := node(), node()
	if !sameType(a, b) {
		t.Error("two copies of a self-referential struct differ")
	}
	outer := &ctypes.Struct{Tag: "node"}
	outer.Fields = []ctypes.Field{{Name: "v", Type: ctypes.IntType}, {Name: "next", Type: &ctypes.Pointer{Elem: node()}, Offset: 4}}
	if got, want := sameType(a, outer), renderType(a, nil) == renderType(outer, nil); got != want {
		t.Errorf("unrolled cycle: sameType = %v, renderings equal = %v", got, want)
	}
}
