// Package pointsto implements SafeFlow's alias analysis. The paper uses
// Data Structure Analysis (DSA): a unification-based, field-sensitive,
// flow-insensitive points-to analysis. We provide the same sensitivity
// trade-off space with two interchangeable solvers over one constraint
// generator:
//
//   - ModeUnify (default): unification-based like DSA/Steensgaard — each
//     points-to set collapses into equivalence classes; near-linear time.
//   - ModeSubset: inclusion-based (Andersen) — more precise, slower; used
//     by the precision ablation benchmarks.
//
// Both are field-sensitive: abstract objects carry per-byte-offset cells,
// with a summary cell for statically-unknown offsets. The analysis is
// flow-insensitive (like DSA); context sensitivity in SafeFlow's phase 3
// comes from the value-flow summaries, not from aliasing, which the P2
// restriction keeps simple in the analyzed subset.
package pointsto

import (
	"fmt"
	"sort"

	"safeflow/internal/ctypes"
	"safeflow/internal/ir"
)

// Mode selects the solver.
type Mode int

// Solver modes.
const (
	ModeUnify Mode = iota + 1
	ModeSubset
)

// ObjKind classifies abstract memory objects.
type ObjKind int

// Object kinds.
const (
	ObjGlobal  ObjKind = iota + 1 // module global storage
	ObjStack                      // alloca site
	ObjShm                        // shared-memory attachment (shmat result)
	ObjOpaque                     // storage behind an external call's pointer result
	ObjString                     // string literal storage
	ObjUnknown                    // the conservative unknown object
)

var objKindNames = map[ObjKind]string{
	ObjGlobal: "global", ObjStack: "stack", ObjShm: "shm",
	ObjOpaque: "opaque", ObjString: "string", ObjUnknown: "unknown",
}

// Object is one abstract memory object.
type Object struct {
	Kind   ObjKind
	Name   string       // diagnostic label
	Global *ir.Global   // for ObjGlobal
	Site   ir.Instr     // allocation site (alloca/call)
	Fn     *ir.Function // owning function for stack objects
	id     int
}

// String implements fmt.Stringer.
func (o *Object) String() string { return fmt.Sprintf("%s:%s", objKindNames[o.Kind], o.Name) }

// UnknownOffset marks a statically-unresolved byte offset.
const UnknownOffset = int64(-1)

// Ref is a reference to an object at a byte offset (UnknownOffset for the
// whole-object summary).
type Ref struct {
	Obj *Object
	Off int64
}

// String implements fmt.Stringer.
func (r Ref) String() string {
	if r.Off == UnknownOffset {
		return r.Obj.String() + "+?"
	}
	return fmt.Sprintf("%s+%d", r.Obj, r.Off)
}

// ---------------------------------------------------------------------------
// Result

// Result exposes the analysis output.
type Result struct {
	mode    Mode
	objects []*Object
	valPts  map[ir.Value]map[Ref]bool
	cellPts map[Ref]map[Ref]bool
	unknown *Object
}

// Objects returns every abstract object (deterministically ordered).
func (r *Result) Objects() []*Object { return r.objects }

// PointsTo returns the refs a pointer value may reference.
func (r *Result) PointsTo(v ir.Value) []Ref { return sortRefs(r.valPts[v]) }

// EachPointsTo calls visit for every ref a pointer value may reference,
// in no particular order, without copying the set. PointsTo returns the
// same refs sorted.
func (r *Result) EachPointsTo(v ir.Value, visit func(Ref)) {
	for ref := range r.valPts[v] {
		visit(ref)
	}
}

// CellPointsTo returns what the memory cell at ref may contain.
func (r *Result) CellPointsTo(ref Ref) []Ref { return sortRefs(r.cellPts[ref]) }

// MayAlias reports whether two pointer values may reference overlapping
// storage.
func (r *Result) MayAlias(a, b ir.Value) bool {
	pa, pb := r.valPts[a], r.valPts[b]
	for ra := range pa {
		for rb := range pb {
			if ra.Obj != rb.Obj {
				continue
			}
			if ra.Off == UnknownOffset || rb.Off == UnknownOffset || ra.Off == rb.Off {
				return true
			}
		}
	}
	return false
}

// PointsToUnknown reports whether v may reference the unknown object.
func (r *Result) PointsToUnknown(v ir.Value) bool {
	for ref := range r.valPts[v] {
		if ref.Obj.Kind == ObjUnknown {
			return true
		}
	}
	return false
}

func sortRefs(set map[Ref]bool) []Ref {
	out := make([]Ref, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj.id != out[j].Obj.id {
			return out[i].Obj.id < out[j].Obj.id
		}
		return out[i].Off < out[j].Off
	})
	return out
}

// ---------------------------------------------------------------------------
// Constraint generation

type constraintKind int

const (
	cAddr  constraintKind = iota + 1 // dst ⊇ {ref}
	cCopy                            // dst ⊇ src
	cGEP                             // dst ⊇ shift(src, delta)
	cLoad                            // dst ⊇ *src
	cStore                           // *dst ⊇ src
)

type constraint struct {
	kind  constraintKind
	dst   ir.Value
	src   ir.Value
	ref   Ref
	delta int64 // byte delta for cGEP; UnknownOffset if not static
}

type analyzer struct {
	m       *ir.Module
	mode    Mode
	cons    []constraint
	objects []*Object
	objFor  map[any]*Object // keyed by *ir.Global or ir.Instr
	unknown *Object
	strObj  *Object
}

// Analyze runs the analysis over the module.
func Analyze(m *ir.Module, mode Mode) *Result {
	a := &analyzer{m: m, mode: mode, objFor: make(map[any]*Object)}
	a.unknown = a.newObject(ObjUnknown, "?", nil, nil, nil)
	a.strObj = a.newObject(ObjString, "strings", nil, nil, nil)
	a.generate()
	if mode == ModeSubset {
		return a.solveSubset()
	}
	return a.solveUnify()
}

func (a *analyzer) newObject(kind ObjKind, name string, g *ir.Global, site ir.Instr, fn *ir.Function) *Object {
	o := &Object{Kind: kind, Name: name, Global: g, Site: site, Fn: fn, id: len(a.objects)}
	a.objects = append(a.objects, o)
	return o
}

func (a *analyzer) objForGlobal(g *ir.Global) *Object {
	if o, ok := a.objFor[g]; ok {
		return o
	}
	o := a.newObject(ObjGlobal, g.Name, g, nil, nil)
	a.objFor[g] = o
	return o
}

func (a *analyzer) objForSite(kind ObjKind, name string, site ir.Instr, fn *ir.Function) *Object {
	if o, ok := a.objFor[site]; ok {
		return o
	}
	o := a.newObject(kind, name, nil, site, fn)
	a.objFor[site] = o
	return o
}

// externReturnsFreshPointer lists external functions whose pointer result
// names fresh storage; shmat specifically names shared memory.
var externFresh = map[string]ObjKind{
	"shmat": ObjShm,
	"fopen": ObjOpaque,
	"fgets": ObjOpaque,
}

// externBenign lists externals that neither capture nor overwrite pointer
// arguments in ways that matter to aliasing.
var externBenign = map[string]bool{
	"printf": true, "fprintf": true, "sprintf": true, "sscanf": true,
	"fscanf": true, "puts": true, "perror": true, "fclose": true,
	"strcmp": true, "strncmp": true, "strlen": true, "atoi": true, "atof": true,
	"fabs": true, "sqrt": true, "sin": true, "cos": true, "tan": true,
	"atan2": true, "pow": true, "exp": true, "log": true, "floor": true, "ceil": true,
	"kill": true, "getpid": true, "exit": true, "abort": true, "fork": true,
	"Lock": true, "Unlock": true, "wait": true, "usleep": true, "sleep": true,
	"shmget": true, "shmdt": true, "shmctl": true, "semget": true, "semop": true,
	"socket": true, "bind": true, "connect": true, "close": true,
	"recv": true, "send": true, "read": true, "write": true,
	"readSensor": true, "writeDA": true, "gettimeofus": true,
	"memset": true, "strcpy": true, "strncpy": true,
	"InitCheck": true, "__safeflow_assert_safe": true,
	"sem_wait": true, "sem_post": true, "nanosleep": true,
}

func (a *analyzer) generate() {
	for _, f := range a.m.Funcs {
		if f.IsDecl {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				a.genInstr(f, in)
			}
		}
	}
}

func (a *analyzer) genInstr(f *ir.Function, in ir.Instr) {
	switch x := in.(type) {
	case *ir.Alloca:
		obj := a.objForSite(ObjStack, f.Name+"."+x.VarName, x, f)
		a.cons = append(a.cons, constraint{kind: cAddr, dst: x, ref: Ref{Obj: obj, Off: 0}})
	case *ir.Load:
		a.genAddrBase(x.Addr)
		if pointerish(x.Type()) {
			a.cons = append(a.cons, constraint{kind: cLoad, dst: x, src: x.Addr})
		}
	case *ir.Store:
		a.genAddrBase(x.Addr)
		a.genAddrBase(x.Val)
		if pointerish(x.Val.Type()) {
			a.cons = append(a.cons, constraint{kind: cStore, dst: x.Addr, src: x.Val})
		}
	case *ir.GEP:
		a.genAddrBase(x.Base)
		a.cons = append(a.cons, constraint{kind: cGEP, dst: x, src: x.Base, delta: gepDelta(x)})
	case *ir.Cast:
		if pointerish(x.To) {
			switch x.Kind {
			case ir.Bitcast:
				a.genAddrBase(x.X)
				a.cons = append(a.cons, constraint{kind: cCopy, dst: x, src: x.X})
			case ir.IntToPtr:
				// Integer-born pointers reference the unknown object unless
				// they are the literal null constant.
				if c, ok := x.X.(*ir.ConstInt); !ok || c.Val != 0 {
					a.cons = append(a.cons, constraint{kind: cAddr, dst: x, ref: Ref{Obj: a.unknown, Off: UnknownOffset}})
				}
			}
		}
	case *ir.Phi:
		if pointerish(x.Ty) {
			for _, e := range x.Edges {
				a.genAddrBase(e.Val)
				a.cons = append(a.cons, constraint{kind: cCopy, dst: x, src: e.Val})
			}
		}
	case *ir.Call:
		a.genCall(f, x)
	case *ir.Ret:
		if x.X != nil && pointerish(x.X.Type()) {
			a.genAddrBase(x.X)
			// ret edges are wired in genCall via a per-function return var;
			// model the return value as a copy into a synthetic value keyed
			// by the function itself.
			a.cons = append(a.cons, constraint{kind: cCopy, dst: retVar{f}, src: x.X})
		}
	}
}

// retVar is a synthetic ir.Value standing for "the return value of fn".
type retVar struct{ fn *ir.Function }

// Type implements ir.Value.
func (r retVar) Type() ctypes.Type { return r.fn.Sig.Result }

// Ident implements ir.Value.
func (r retVar) Ident() string { return "@ret." + r.fn.Name }

// genAddrBase introduces address-of constraints for direct global and
// string operands (they are values, not instructions, so no genInstr case
// sees them).
func (a *analyzer) genAddrBase(v ir.Value) {
	switch x := v.(type) {
	case *ir.Global:
		obj := a.objForGlobal(x)
		a.cons = append(a.cons, constraint{kind: cAddr, dst: x, ref: Ref{Obj: obj, Off: 0}})
	case *ir.ConstStr:
		a.cons = append(a.cons, constraint{kind: cAddr, dst: x, ref: Ref{Obj: a.strObj, Off: UnknownOffset}})
	}
}

func (a *analyzer) genCall(f *ir.Function, call *ir.Call) {
	callee := call.Callee
	for _, arg := range call.Args {
		a.genAddrBase(arg)
	}
	if callee.IsDecl {
		if kind, fresh := externFresh[callee.Name]; fresh {
			obj := a.objForSite(kind, callee.Name+"@"+call.Pos().String(), call, f)
			a.cons = append(a.cons, constraint{kind: cAddr, dst: call, ref: Ref{Obj: obj, Off: 0}})
			return
		}
		if externBenign[callee.Name] {
			return
		}
		// Unknown external: pointer args may be captured and overwritten;
		// pointer results are unknown.
		for _, arg := range call.Args {
			if pointerish(arg.Type()) {
				a.cons = append(a.cons, constraint{kind: cStore, dst: arg, src: unknownVal{a.unknown}})
			}
		}
		if pointerish(call.Type()) {
			a.cons = append(a.cons, constraint{kind: cAddr, dst: call, ref: Ref{Obj: a.unknown, Off: UnknownOffset}})
		}
		return
	}
	// Defined callee: parameter and return plumbing (context-insensitive).
	for i, arg := range call.Args {
		if i < len(callee.Params) && pointerish(arg.Type()) {
			a.cons = append(a.cons, constraint{kind: cCopy, dst: callee.Params[i], src: arg})
		}
	}
	if pointerish(call.Type()) {
		a.cons = append(a.cons, constraint{kind: cCopy, dst: call, src: retVar{callee}})
	}
}

// unknownVal is a synthetic value whose points-to set is {unknown}.
type unknownVal struct{ obj *Object }

// Type implements ir.Value.
func (u unknownVal) Type() ctypes.Type { return &ctypes.Pointer{Elem: ctypes.VoidType} }

// Ident implements ir.Value.
func (u unknownVal) Ident() string { return "@unknown" }

// pointerish reports whether a type can carry a pointer (pointers and
// aggregates containing them are handled; plain scalars are not tracked).
func pointerish(t ctypes.Type) bool {
	switch tt := t.(type) {
	case *ctypes.Pointer:
		return true
	case *ctypes.Array:
		return pointerish(tt.Elem)
	case *ctypes.Struct:
		for _, f := range tt.Fields {
			if pointerish(f.Type) {
				return true
			}
		}
	}
	return false
}

// gepDelta computes the static byte offset of a GEP, or UnknownOffset.
func gepDelta(g *ir.GEP) int64 {
	cur := g.Base.Type()
	var delta int64
	for _, ix := range g.Indices {
		p, ok := cur.(*ctypes.Pointer)
		if !ok {
			return UnknownOffset
		}
		if ix.Index == nil {
			st, ok := p.Elem.(*ctypes.Struct)
			if !ok || ix.Field >= len(st.Fields) {
				return UnknownOffset
			}
			delta += st.Fields[ix.Field].Offset
			cur = &ctypes.Pointer{Elem: st.Fields[ix.Field].Type}
			continue
		}
		c, isConst := ix.Index.(*ir.ConstInt)
		if arr, isArr := p.Elem.(*ctypes.Array); isArr {
			if !isConst {
				return UnknownOffset
			}
			delta += c.Val * arr.Elem.Size()
			cur = &ctypes.Pointer{Elem: arr.Elem}
			continue
		}
		// Pointer step.
		if !isConst {
			return UnknownOffset
		}
		delta += c.Val * p.Elem.Size()
	}
	return delta
}

func shiftRef(r Ref, delta int64) Ref {
	if r.Off == UnknownOffset || delta == UnknownOffset {
		return Ref{Obj: r.Obj, Off: UnknownOffset}
	}
	return Ref{Obj: r.Obj, Off: r.Off + delta}
}
