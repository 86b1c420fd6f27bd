package ir

import (
	"strings"
	"testing"

	"safeflow/internal/ctypes"
)

func TestModuleRegistry(t *testing.T) {
	m := NewModule("t")
	g := &Global{Name: "g", Elem: ctypes.DoubleType}
	m.AddGlobal(g)
	if m.GlobalByName("g") != g || m.GlobalByName("missing") != nil {
		t.Error("global registry broken")
	}
	f := &Function{Name: "f", Sig: &ctypes.Func{Result: ctypes.VoidType}}
	m.AddFunc(f)
	if m.FuncByName("f") != f || f.Module != m {
		t.Error("function registry broken")
	}
}

func TestValueTypes(t *testing.T) {
	ci := &ConstInt{Val: 42, Ty: ctypes.IntType}
	if ci.Ident() != "42" || ci.Type() != ctypes.IntType {
		t.Error("ConstInt")
	}
	cf := &ConstFloat{Val: 1.5, Ty: ctypes.DoubleType}
	if cf.Ident() != "1.5" {
		t.Errorf("ConstFloat ident = %q", cf.Ident())
	}
	cs := &ConstStr{Val: "hi"}
	if !ctypes.IsPointer(cs.Type()) {
		t.Error("ConstStr must be char*")
	}
	g := &Global{Name: "g", Elem: ctypes.IntType}
	if g.Ident() != "@g" || !ctypes.IsPointer(g.Type()) {
		t.Error("Global value semantics: the value is the address")
	}
}

func TestBlockAppendAndTerminate(t *testing.T) {
	f := &Function{Name: "f", Sig: &ctypes.Func{Result: ctypes.VoidType}}
	b0 := f.NewBlock("entry")
	b1 := f.NewBlock("next")
	if b0.Term() != nil {
		t.Error("fresh block has a terminator")
	}
	Terminate(b0, &Br{Then: b1})
	if b0.Term() == nil {
		t.Error("terminator missing")
	}
	if len(b0.Succs) != 1 || b0.Succs[0] != b1 || len(b1.Preds) != 1 {
		t.Error("CFG edges not wired")
	}
	// Terminating twice is a no-op (if/else arms both returning).
	Terminate(b0, &Ret{})
	if _, ok := b0.Term().(*Br); !ok {
		t.Error("second terminator replaced the first")
	}
}

func TestAppendToTerminatedPanics(t *testing.T) {
	f := &Function{Name: "f", Sig: &ctypes.Func{Result: ctypes.VoidType}}
	b := f.NewBlock("entry")
	Terminate(b, &Ret{})
	defer func() {
		if recover() == nil {
			t.Error("append to terminated block did not panic")
		}
	}()
	b.Append(&BinOp{Op: Add, X: &ConstInt{Ty: ctypes.IntType}, Y: &ConstInt{Ty: ctypes.IntType}, Ty: ctypes.IntType})
}

func TestInstrTypesAndOperands(t *testing.T) {
	f := &Function{Name: "f", Sig: &ctypes.Func{Result: ctypes.IntType}}
	b := f.NewBlock("entry")

	al := &Alloca{Elem: ctypes.DoubleType, VarName: "x"}
	b.Append(al)
	if !ctypes.IsPointer(al.Type()) || al.Ident() != "%x" {
		t.Error("alloca value")
	}

	st := &Store{Val: &ConstFloat{Val: 1, Ty: ctypes.DoubleType}, Addr: al}
	b.Append(st)
	if len(st.AppendOperands(nil)) != 2 {
		t.Error("store operands")
	}

	ld := &Load{Addr: al}
	b.Append(ld)
	if !ld.Type().Equal(ctypes.DoubleType) {
		t.Errorf("load type = %v", ld.Type())
	}

	bo := &BinOp{Op: Mul, X: ld, Y: ld, Ty: ctypes.DoubleType}
	b.Append(bo)
	if bo.String() == "" || len(bo.AppendOperands(nil)) != 2 {
		t.Error("binop")
	}

	cmp := &Cmp{Op: LT, X: ld, Y: ld}
	b.Append(cmp)
	if !cmp.Type().Equal(ctypes.IntType) {
		t.Error("cmp yields int")
	}

	ca := &Cast{Kind: FpToInt, X: ld, To: ctypes.IntType}
	b.Append(ca)
	if !ca.Type().Equal(ctypes.IntType) {
		t.Error("cast type")
	}

	Terminate(b, &Ret{X: ca})
	text := f.String()
	for _, want := range []string{"alloca", "store", "load", "mul", "cmp lt", "fptoint", "ret"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed function missing %q:\n%s", want, text)
		}
	}
}

func TestGEPTypeWalk(t *testing.T) {
	s := ctypes.NewStruct("S", false, []ctypes.Field{
		{Name: "a", Type: ctypes.DoubleType},
		{Name: "arr", Type: &ctypes.Array{Elem: ctypes.IntType, Len: 4}},
	})
	f := &Function{Name: "f", Sig: &ctypes.Func{Result: ctypes.VoidType}}
	b := f.NewBlock("entry")
	base := &Alloca{Elem: s, VarName: "s"}
	b.Append(base)
	gep := &GEP{
		Base:    base,
		Indices: []GEPIndex{{Field: 1}},
		ResultT: &ctypes.Pointer{Elem: &ctypes.Array{Elem: ctypes.IntType, Len: 4}},
	}
	b.Append(gep)
	if len(gep.AppendOperands(nil)) != 1 {
		t.Errorf("field-only GEP operands = %d", len(gep.AppendOperands(nil)))
	}
	idx := &ConstInt{Val: 2, Ty: ctypes.IntType}
	gep2 := &GEP{
		Base:    gep,
		Indices: []GEPIndex{{Index: idx}},
		ResultT: &ctypes.Pointer{Elem: ctypes.IntType},
	}
	b.Append(gep2)
	ops := gep2.AppendOperands(nil)
	if len(ops) != 2 || ops[1] != Value(idx) {
		t.Errorf("GEP operands = %v", ops)
	}
}

func TestPhiPrinting(t *testing.T) {
	f := &Function{Name: "f", Sig: &ctypes.Func{Result: ctypes.IntType}}
	a := f.NewBlock("a")
	bb := f.NewBlock("b")
	m := f.NewBlock("m")
	Terminate(a, &Br{Then: m})
	Terminate(bb, &Br{Then: m})
	phi := &Phi{
		Edges: []PhiEdge{
			{Val: &ConstInt{Val: 1, Ty: ctypes.IntType}, Pred: a},
			{Val: &ConstInt{Val: 2, Ty: ctypes.IntType}, Pred: bb},
		},
		Ty: ctypes.IntType,
	}
	phi.SetParentBlock(m)
	m.Instrs = append([]Instr{phi}, m.Instrs...)
	Terminate(m, &Ret{X: phi})
	s := phi.String()
	if !strings.Contains(s, "phi int") || !strings.Contains(s, "[1, %a0]") {
		t.Errorf("phi string = %q", s)
	}
	if len(phi.AppendOperands(nil)) != 2 {
		t.Error("phi operands")
	}
}

func TestCallPrinting(t *testing.T) {
	m := NewModule("t")
	void := &Function{Name: "side", Sig: &ctypes.Func{Result: ctypes.VoidType}, IsDecl: true}
	val := &Function{Name: "get", Sig: &ctypes.Func{Result: ctypes.IntType}, IsDecl: true}
	m.AddFunc(void)
	m.AddFunc(val)
	f := &Function{Name: "f", Sig: &ctypes.Func{Result: ctypes.VoidType}}
	m.AddFunc(f)
	b := f.NewBlock("entry")
	c1 := &Call{Callee: void}
	b.Append(c1)
	c2 := &Call{Callee: val, Args: []Value{&ConstInt{Val: 3, Ty: ctypes.IntType}}}
	b.Append(c2)
	Terminate(b, &Ret{})
	if strings.Contains(c1.String(), "=") {
		t.Errorf("void call prints a result: %q", c1.String())
	}
	if !strings.Contains(c2.String(), "= call @get(3)") {
		t.Errorf("call string = %q", c2.String())
	}
}

func TestRenumberBlocks(t *testing.T) {
	f := &Function{Name: "f", Sig: &ctypes.Func{Result: ctypes.VoidType}}
	b0 := f.NewBlock("a")
	b1 := f.NewBlock("b")
	f.Blocks = []*Block{b1, b0}
	f.RenumberBlocks()
	if b1.Index != 0 || b0.Index != 1 {
		t.Error("renumber failed")
	}
}
