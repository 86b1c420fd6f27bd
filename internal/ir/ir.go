// Package ir defines SafeFlow's typed intermediate representation — a
// deliberately LLVM-like SSA form (the paper implements its analysis on
// LLVM bytecode): functions of basic blocks holding instructions such as
// alloca, load, store, getelementptr, phi, and direct calls.
//
// Programs are first lowered with explicit allocas for every local; the
// mem2reg pass (irgen.Promote) then rewrites scalar allocas into SSA
// registers using iterated dominance frontiers, exactly as LLVM's -mem2reg
// does. SafeFlow's analyses consume the promoted form.
package ir

import (
	"fmt"
	"strconv"
	"strings"

	"safeflow/internal/ctoken"
	"safeflow/internal/ctypes"
)

// Value is an SSA value: instruction results, constants, globals,
// parameters, and function references.
type Value interface {
	// Type returns the value's type.
	Type() ctypes.Type
	// Ident returns the value's printable identifier (%t3, @g, 42).
	Ident() string
}

// ---------------------------------------------------------------------------
// Non-instruction values

// ConstInt is an integer constant.
type ConstInt struct {
	Val int64
	Ty  ctypes.Type
}

// Type implements Value.
func (c *ConstInt) Type() ctypes.Type { return c.Ty }

// Ident implements Value.
func (c *ConstInt) Ident() string { return fmt.Sprintf("%d", c.Val) }

// ConstFloat is a floating constant.
type ConstFloat struct {
	Val float64
	Ty  ctypes.Type
}

// Type implements Value.
func (c *ConstFloat) Type() ctypes.Type { return c.Ty }

// Ident implements Value.
func (c *ConstFloat) Ident() string { return fmt.Sprintf("%g", c.Val) }

// ConstStr is a string literal (pointer to static storage).
type ConstStr struct {
	Val string
}

// Type implements Value.
func (c *ConstStr) Type() ctypes.Type { return &ctypes.Pointer{Elem: ctypes.CharType} }

// Ident implements Value.
func (c *ConstStr) Ident() string { return fmt.Sprintf("%q", c.Val) }

// Global is a module-level variable; its value is the *address* of the
// storage, so its type is a pointer to the declared type.
type Global struct {
	Name     string
	Elem     ctypes.Type // declared (pointee) type
	HasInit  bool
	InitInts []int64 // flattened constant initializer when present
	Pos      ctoken.Pos
}

// Type implements Value.
func (g *Global) Type() ctypes.Type { return &ctypes.Pointer{Elem: g.Elem} }

// Ident implements Value.
func (g *Global) Ident() string { return "@" + g.Name }

// Param is a function parameter.
type Param struct {
	Name  string
	Ty    ctypes.Type
	Index int
	Fn    *Function
}

// Type implements Value.
func (p *Param) Type() ctypes.Type { return p.Ty }

// Ident implements Value.
func (p *Param) Ident() string { return "%" + p.Name }

// ---------------------------------------------------------------------------
// Module and functions

// Module is one whole program in IR form.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Function

	globalMap map[string]*Global
	funcMap   map[string]*Function
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:      name,
		globalMap: make(map[string]*Global),
		funcMap:   make(map[string]*Function),
	}
}

// AddGlobal registers a global variable.
func (m *Module) AddGlobal(g *Global) {
	m.Globals = append(m.Globals, g)
	m.globalMap[g.Name] = g
}

// GlobalByName returns the named global, or nil.
func (m *Module) GlobalByName(name string) *Global { return m.globalMap[name] }

// AddFunc registers a function.
func (m *Module) AddFunc(f *Function) {
	f.Module = m
	m.Funcs = append(m.Funcs, f)
	m.funcMap[f.Name] = f
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Function { return m.funcMap[name] }

// AnnotationFacts carries the SafeFlow facts attached to a function by the
// annotation pass; the concrete fact types live in package annot and are
// stored here as opaque values to avoid an import cycle.
type AnnotationFacts any

// Function is a function definition (Blocks non-empty) or declaration.
type Function struct {
	Name      string
	Sig       *ctypes.Func
	Params    []*Param
	Blocks    []*Block
	Module    *Module
	Pos       ctoken.Pos
	IsDecl    bool // external declaration, no body
	Facts     AnnotationFacts
	numValues int
	numInstrs int
}

// Type implements Value (a function used as a callee operand).
func (f *Function) Type() ctypes.Type { return f.Sig }

// Ident implements Value.
func (f *Function) Ident() string { return "@" + f.Name }

// Entry returns the entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new basic block with a label hint.
func (f *Function) NewBlock(hint string) *Block {
	b := &Block{
		Label: fmt.Sprintf("%s%d", hint, len(f.Blocks)),
		Fn:    f,
		Index: len(f.Blocks),
	}
	f.Blocks = append(f.Blocks, b)
	return b
}

// RenumberBlocks refreshes Block.Index after block list edits.
func (f *Function) RenumberBlocks() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// Block is a basic block: a label, instructions, and a terminator as the
// final instruction.
type Block struct {
	Label  string
	Fn     *Function
	Index  int
	Instrs []Instr
	Preds  []*Block
	Succs  []*Block
}

// Ident returns the block's printable label.
func (b *Block) Ident() string { return "%" + b.Label }

// Term returns the block's terminator, or nil if the block is unterminated.
func (b *Block) Term() Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.isTerminator() {
		return last
	}
	return nil
}

// Append adds an instruction; panics if the block is already terminated
// (an irgen bug, not a user error).
func (b *Block) Append(in Instr) {
	if b.Term() != nil {
		panic(fmt.Sprintf("ir: append %T to terminated block %s", in, b.Label))
	}
	in.setParent(b)
	b.Instrs = append(b.Instrs, in)
}

func addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// ---------------------------------------------------------------------------
// Instructions

// Instr is one IR instruction. Instructions producing a value also
// implement Value.
type Instr interface {
	// Parent returns the containing block.
	Parent() *Block
	// AppendOperands appends the instruction's value operands to ops and
	// returns the extended slice (for def-use scans). Callers that reuse
	// one buffer walk operands without allocating.
	AppendOperands(ops []Value) []Value
	// Pos returns the originating source position.
	Pos() ctoken.Pos
	// String renders the instruction in LLVM-ish syntax.
	String() string

	setParent(*Block)
	isTerminator() bool
	setValueNum(int)
	valueNum() int
	setInstrIndex(int)
	instrIndex() int
}

// instrBase provides shared bookkeeping for all instructions. vnum and
// iidx hold the dense numbering of NumberValues, offset by one so the
// zero value means "unassigned" (-1).
type instrBase struct {
	parent *Block
	pos    ctoken.Pos
	vnum   int32
	iidx   int32
}

func (i *instrBase) Parent() *Block        { return i.parent }
func (i *instrBase) setParent(b *Block)    { i.parent = b }
func (i *instrBase) Pos() ctoken.Pos       { return i.pos }
func (i *instrBase) isTerminator() bool    { return false }
func (i *instrBase) SetPos(pos ctoken.Pos) { i.pos = pos }
func (i *instrBase) setValueNum(n int)     { i.vnum = int32(n) + 1 }
func (i *instrBase) valueNum() int         { return int(i.vnum) - 1 }
func (i *instrBase) setInstrIndex(n int)   { i.iidx = int32(n) + 1 }
func (i *instrBase) instrIndex() int       { return int(i.iidx) - 1 }

// SetParentBlock sets the parent block; exported for passes that splice
// instructions (e.g. inserting phis at a block's front) without Append.
func (i *instrBase) SetParentBlock(b *Block) { i.parent = b }

// ident formats the SSA name, %t followed by the value number
// NumberValues assigned (%t? before the function is numbered). It only
// reads, so analyses sharing one module may render it at once, and the
// names do not depend on which instruction was rendered first.
func (i *instrBase) ident() string {
	if i.vnum == 0 {
		return "%t?"
	}
	return "%t" + strconv.Itoa(i.valueNum())
}

// Alloca reserves stack storage for one object of Elem type; the result is
// a pointer to it.
type Alloca struct {
	instrBase
	Elem    ctypes.Type
	VarName string // source-level variable name (for diagnostics/asserts)
}

// Type implements Value.
func (a *Alloca) Type() ctypes.Type { return &ctypes.Pointer{Elem: a.Elem} }

// Ident implements Value.
func (a *Alloca) Ident() string {
	if a.VarName != "" {
		return "%" + a.VarName
	}
	return a.ident()
}

// AppendOperands implements Instr.
func (a *Alloca) AppendOperands(ops []Value) []Value { return ops }

// String implements Instr.
func (a *Alloca) String() string {
	return fmt.Sprintf("%s = alloca %s", a.Ident(), a.Elem)
}

// Load reads from memory.
type Load struct {
	instrBase
	Addr Value
}

// Type implements Value.
func (l *Load) Type() ctypes.Type {
	if p, ok := l.Addr.Type().(*ctypes.Pointer); ok {
		return p.Elem
	}
	return ctypes.IntType
}

// Ident implements Value.
func (l *Load) Ident() string { return l.ident() }

// AppendOperands implements Instr.
func (l *Load) AppendOperands(ops []Value) []Value { return append(ops, l.Addr) }

// String implements Instr.
func (l *Load) String() string {
	return fmt.Sprintf("%s = load %s, %s", l.Ident(), l.Type(), l.Addr.Ident())
}

// Store writes Val to memory at Addr.
type Store struct {
	instrBase
	Val  Value
	Addr Value
}

// AppendOperands implements Instr.
func (s *Store) AppendOperands(ops []Value) []Value { return append(ops, s.Val, s.Addr) }

// String implements Instr.
func (s *Store) String() string {
	return fmt.Sprintf("store %s %s, %s", s.Val.Type(), s.Val.Ident(), s.Addr.Ident())
}

// GEPIndex is one step of a getelementptr: either a struct field (by
// number) or an array/pointer element index (a Value).
type GEPIndex struct {
	Field int   // valid when Index == nil
	Index Value // nil for struct fields
}

// GEP computes an address from a base pointer plus indices, like LLVM's
// getelementptr. The first index steps the base pointer itself (pointer
// arithmetic); subsequent indices walk into aggregates.
type GEP struct {
	instrBase
	Base    Value
	Indices []GEPIndex
	ResultT ctypes.Type // pointer type of the result
}

// Type implements Value.
func (g *GEP) Type() ctypes.Type { return g.ResultT }

// Ident implements Value.
func (g *GEP) Ident() string { return g.ident() }

// AppendOperands implements Instr.
func (g *GEP) AppendOperands(ops []Value) []Value {
	ops = append(ops, g.Base)
	for _, ix := range g.Indices {
		if ix.Index != nil {
			ops = append(ops, ix.Index)
		}
	}
	return ops
}

// String implements Instr.
func (g *GEP) String() string {
	var parts []string
	for _, ix := range g.Indices {
		if ix.Index != nil {
			parts = append(parts, ix.Index.Ident())
		} else {
			parts = append(parts, fmt.Sprintf("field %d", ix.Field))
		}
	}
	return fmt.Sprintf("%s = getelementptr %s, [%s]", g.Ident(), g.Base.Ident(), strings.Join(parts, ", "))
}

// BinKind is a binary arithmetic/logical operator.
type BinKind int

// Binary operator kinds.
const (
	Add BinKind = iota + 1
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
)

var binNames = map[BinKind]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
}

// String returns the operator mnemonic.
func (k BinKind) String() string { return binNames[k] }

// BinOp is a binary arithmetic operation.
type BinOp struct {
	instrBase
	Op   BinKind
	X, Y Value
	Ty   ctypes.Type
}

// Type implements Value.
func (b *BinOp) Type() ctypes.Type { return b.Ty }

// Ident implements Value.
func (b *BinOp) Ident() string { return b.ident() }

// AppendOperands implements Instr.
func (b *BinOp) AppendOperands(ops []Value) []Value { return append(ops, b.X, b.Y) }

// String implements Instr.
func (b *BinOp) String() string {
	return fmt.Sprintf("%s = %s %s %s, %s", b.Ident(), b.Op, b.Ty, b.X.Ident(), b.Y.Ident())
}

// CmpKind is a comparison predicate.
type CmpKind int

// Comparison predicates.
const (
	EQ CmpKind = iota + 1
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = map[CmpKind]string{EQ: "eq", NE: "ne", LT: "lt", LE: "le", GT: "gt", GE: "ge"}

// String returns the predicate mnemonic.
func (k CmpKind) String() string { return cmpNames[k] }

// Cmp compares two values, yielding an int (0/1).
type Cmp struct {
	instrBase
	Op   CmpKind
	X, Y Value
}

// Type implements Value.
func (c *Cmp) Type() ctypes.Type { return ctypes.IntType }

// Ident implements Value.
func (c *Cmp) Ident() string { return c.ident() }

// AppendOperands implements Instr.
func (c *Cmp) AppendOperands(ops []Value) []Value { return append(ops, c.X, c.Y) }

// String implements Instr.
func (c *Cmp) String() string {
	return fmt.Sprintf("%s = cmp %s %s, %s", c.Ident(), c.Op, c.X.Ident(), c.Y.Ident())
}

// CastKind classifies conversions; the distinction matters to restriction
// P3 (pointer casts and pointer<->integer casts on shared memory).
type CastKind int

// Cast kinds.
const (
	Bitcast  CastKind = iota + 1 // pointer -> pointer
	PtrToInt                     // pointer -> integer
	IntToPtr                     // integer -> pointer
	Trunc                        // numeric narrowing
	Ext                          // numeric widening
	FpToInt                      // float -> int
	IntToFp                      // int -> float
	FpCast                       // float width change
)

var castNames = map[CastKind]string{
	Bitcast: "bitcast", PtrToInt: "ptrtoint", IntToPtr: "inttoptr",
	Trunc: "trunc", Ext: "ext", FpToInt: "fptoint", IntToFp: "inttofp", FpCast: "fpcast",
}

// String returns the cast mnemonic.
func (k CastKind) String() string { return castNames[k] }

// Cast converts X to type To.
type Cast struct {
	instrBase
	Kind CastKind
	X    Value
	To   ctypes.Type
}

// Type implements Value.
func (c *Cast) Type() ctypes.Type { return c.To }

// Ident implements Value.
func (c *Cast) Ident() string { return c.ident() }

// AppendOperands implements Instr.
func (c *Cast) AppendOperands(ops []Value) []Value { return append(ops, c.X) }

// String implements Instr.
func (c *Cast) String() string {
	return fmt.Sprintf("%s = %s %s to %s", c.Ident(), c.Kind, c.X.Ident(), c.To)
}

// Call invokes Callee with Args. Only direct calls exist in the subset.
type Call struct {
	instrBase
	Callee *Function
	Args   []Value
}

// Type implements Value.
func (c *Call) Type() ctypes.Type { return c.Callee.Sig.Result }

// Ident implements Value.
func (c *Call) Ident() string { return c.ident() }

// AppendOperands implements Instr.
func (c *Call) AppendOperands(ops []Value) []Value { return append(ops, c.Args...) }

// String implements Instr.
func (c *Call) String() string {
	var args []string
	for _, a := range c.Args {
		args = append(args, a.Ident())
	}
	res := ""
	if !ctypes.IsVoid(c.Callee.Sig.Result) {
		res = c.Ident() + " = "
	}
	return fmt.Sprintf("%scall %s(%s)", res, c.Callee.Ident(), strings.Join(args, ", "))
}

// PhiEdge is one incoming (value, predecessor) pair of a phi.
type PhiEdge struct {
	Val  Value
	Pred *Block
}

// Phi merges values at control-flow joins.
type Phi struct {
	instrBase
	Edges []PhiEdge
	Ty    ctypes.Type
	Var   string // promoted variable name, for diagnostics
}

// Type implements Value.
func (p *Phi) Type() ctypes.Type { return p.Ty }

// Ident implements Value.
func (p *Phi) Ident() string { return p.ident() }

// AppendOperands implements Instr.
func (p *Phi) AppendOperands(ops []Value) []Value {
	for _, e := range p.Edges {
		ops = append(ops, e.Val)
	}
	return ops
}

// String implements Instr.
func (p *Phi) String() string {
	var parts []string
	for _, e := range p.Edges {
		parts = append(parts, fmt.Sprintf("[%s, %s]", e.Val.Ident(), e.Pred.Ident()))
	}
	return fmt.Sprintf("%s = phi %s %s", p.Ident(), p.Ty, strings.Join(parts, ", "))
}

// Ret returns from the function; X is nil for void returns.
type Ret struct {
	instrBase
	X Value
}

// AppendOperands implements Instr.
func (r *Ret) AppendOperands(ops []Value) []Value {
	if r.X == nil {
		return ops
	}
	return append(ops, r.X)
}

// String implements Instr.
func (r *Ret) String() string {
	if r.X == nil {
		return "ret void"
	}
	return fmt.Sprintf("ret %s %s", r.X.Type(), r.X.Ident())
}

func (r *Ret) isTerminator() bool { return true }

// Br is a conditional (Cond non-nil) or unconditional branch.
type Br struct {
	instrBase
	Cond Value // nil for unconditional
	Then *Block
	Else *Block // nil for unconditional
}

// AppendOperands implements Instr.
func (b *Br) AppendOperands(ops []Value) []Value {
	if b.Cond == nil {
		return ops
	}
	return append(ops, b.Cond)
}

// String implements Instr.
func (b *Br) String() string {
	if b.Cond == nil {
		return fmt.Sprintf("br %s", b.Then.Ident())
	}
	return fmt.Sprintf("br %s, %s, %s", b.Cond.Ident(), b.Then.Ident(), b.Else.Ident())
}

func (b *Br) isTerminator() bool { return true }

// Unreachable marks dead control flow (e.g. after exit()).
type Unreachable struct {
	instrBase
}

// AppendOperands implements Instr.
func (u *Unreachable) AppendOperands(ops []Value) []Value { return ops }

// String implements Instr.
func (u *Unreachable) String() string { return "unreachable" }

func (u *Unreachable) isTerminator() bool { return true }

// ---------------------------------------------------------------------------
// Builder helpers

// Terminate appends a terminator and wires CFG edges.
func Terminate(b *Block, t Instr) {
	if b.Term() != nil {
		return // already terminated (e.g. return inside both if arms)
	}
	b.Append(t)
	switch tt := t.(type) {
	case *Br:
		addEdge(b, tt.Then)
		if tt.Else != nil {
			addEdge(b, tt.Else)
		}
	}
}

// ---------------------------------------------------------------------------
// Printing

// String renders the whole module.
func (m *Module) String() string {
	var sb strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "global %s : %s\n", g.Ident(), g.Elem)
	}
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// String renders one function.
func (f *Function) String() string {
	var sb strings.Builder
	var ps []string
	for _, p := range f.Params {
		ps = append(ps, fmt.Sprintf("%s %s", p.Ty, p.Ident()))
	}
	fmt.Fprintf(&sb, "func %s(%s) %s {\n", f.Ident(), strings.Join(ps, ", "), f.Sig.Result)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:", b.Label)
		if len(b.Preds) > 0 {
			var pl []string
			for _, p := range b.Preds {
				pl = append(pl, p.Label)
			}
			fmt.Fprintf(&sb, "    ; preds: %s", strings.Join(pl, " "))
		}
		sb.WriteByte('\n')
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in.String())
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
