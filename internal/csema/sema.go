// Package csema performs semantic analysis of parsed SafeFlow C: name
// resolution, type resolution and checking, constant evaluation, and the
// construction of the typed program that irgen lowers to IR.
package csema

import (
	"fmt"
	"sort"
	"strings"

	"safeflow/internal/cast"
	"safeflow/internal/ctoken"
	"safeflow/internal/ctypes"
)

// Error is a semantic error at a position.
type Error struct {
	Pos ctoken.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a list of semantic errors implementing error.
type ErrorList []*Error

// Error implements the error interface.
func (l ErrorList) Error() string {
	var sb strings.Builder
	for i, e := range l {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(e.Error())
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Objects

// Object is a named program entity bound by name resolution.
type Object interface {
	ObjName() string
	ObjType() ctypes.Type
}

// GlobalVar is a file-scope variable.
type GlobalVar struct {
	Name string
	Type ctypes.Type
	Decl *cast.VarDecl
}

// LocalVar is a block-scope variable.
type LocalVar struct {
	Name string
	Type ctypes.Type
	Decl *cast.VarDecl
	Fn   *Function
}

// ParamVar is a function parameter.
type ParamVar struct {
	Name  string
	Type  ctypes.Type
	Index int
	Fn    *Function
}

// Function is a declared or defined function.
type Function struct {
	Name        string
	Type        *ctypes.Func
	Decl        *cast.FuncDecl // the definition if one exists, else first decl
	Params      []*ParamVar
	Annotations []cast.Annotation
	IsDefined   bool
	IsBuiltin   bool // predeclared external (libc / shm library / SafeFlow runtime)
}

// EnumConst is an enumerator.
type EnumConst struct {
	Name  string
	Value int64
}

// ObjName/ObjType implementations.
func (o *GlobalVar) ObjName() string { return o.Name }

// ObjType implements Object.
func (o *GlobalVar) ObjType() ctypes.Type { return o.Type }

// ObjName implements Object.
func (o *LocalVar) ObjName() string { return o.Name }

// ObjType implements Object.
func (o *LocalVar) ObjType() ctypes.Type { return o.Type }

// ObjName implements Object.
func (o *ParamVar) ObjName() string { return o.Name }

// ObjType implements Object.
func (o *ParamVar) ObjType() ctypes.Type { return o.Type }

// ObjName implements Object.
func (o *Function) ObjName() string { return o.Name }

// ObjType implements Object.
func (o *Function) ObjType() ctypes.Type { return o.Type }

// ObjName implements Object.
func (o *EnumConst) ObjName() string { return o.Name }

// ObjType implements Object.
func (o *EnumConst) ObjType() ctypes.Type { return ctypes.IntType }

// ---------------------------------------------------------------------------
// Program

// Program is the typed output of semantic analysis over one or more files.
type Program struct {
	Files      []*cast.File
	Structs    map[string]*ctypes.Struct
	Typedefs   map[string]ctypes.Type
	Globals    []*GlobalVar
	GlobalMap  map[string]*GlobalVar
	Funcs      []*Function
	FuncByName map[string]*Function
	ExprTypes  map[cast.Expr]ctypes.Type
	Uses       map[*cast.Ident]Object
	Enums      map[string]*EnumConst
	Warnings   []string
}

// TypeOf returns the resolved type of an expression (nil if unchecked).
func (p *Program) TypeOf(e cast.Expr) ctypes.Type { return p.ExprTypes[e] }

// checker carries analysis state.
type checker struct {
	prog   *Program
	errs   ErrorList
	scopes []map[string]Object
	curFn  *Function

	// Pass-1 repeat skipping (see AnalyzeUnits). gen counts the changes
	// to a typedef's type, a struct, or an enumerator's value that could
	// make a type resolve differently; tagDef records that resolving a
	// type defined a struct or enum body; clean maps a skippable node to
	// gen at its last error-free collection, recorded while record is set;
	// skips counts the repeats skipped.
	gen    int
	tagDef bool
	clean  map[cast.Decl]int
	record bool
	skips  int
	// redefined records a "redefinition of function" error, the only way
	// a definition node can occur twice.
	redefined bool
}

// Analyze type-checks the files as one program.
func Analyze(files []*cast.File) (*Program, error) {
	prog, perFile := AnalyzeUnits(files)
	var all ErrorList
	for _, errs := range perFile {
		all = append(all, errs...)
	}
	if len(all) > 0 {
		return prog, all
	}
	return prog, nil
}

// AnalyzeUnits is Analyze with per-unit error attribution: the i-th
// returned list holds the errors produced while checking files[i]'s
// declarations (pass 1) and bodies (pass 2); it is empty when the file
// checked cleanly. The recovering front end uses the attribution to drop
// exactly the failing translation units and retry with the rest.
//
// The front end shares a header's declaration nodes between the units
// that include it, so one node can occur in many files. Pass 1 collects a
// repeat of a node only when doing so could change something. It skips a
// global without initializer, or a prototype with no body and no
// annotations, that was last collected without error, whose type defines
// no struct or enum body, and since whose collection no typedef, struct or
// enumerator has changed value. Collecting such a node only resolves its
// type and compares it with the type GlobalMap or FuncByName already
// holds. That type was fixed at the name's first declaration, or by the
// builtin override, which happens at the latest at the node's first
// collection. Its type resolves as before, because nothing it names has
// changed, so the comparison succeeds again and changes no state.
// Typedefs, records, initialized globals, definitions and annotated
// prototypes are collected at every occurrence, so redefinition errors,
// annotation lists and per-file attribution are those of per-unit
// copies. Pass 2 checks a shared definition's body once, at its last
// occurrence, which is where a per-unit copy's body would be checked.
// Skipping is only ever an optimization: the bookkeeping stops when the
// second file repeats no node of the first, so files parsed apart cost
// what they did before.
func AnalyzeUnits(files []*cast.File) (*Program, []ErrorList) {
	prog := &Program{
		Files:      files,
		Structs:    make(map[string]*ctypes.Struct),
		Typedefs:   make(map[string]ctypes.Type),
		GlobalMap:  make(map[string]*GlobalVar),
		FuncByName: make(map[string]*Function),
		ExprTypes:  make(map[cast.Expr]ctypes.Type),
		Uses:       make(map[*cast.Ident]Object),
		Enums:      make(map[string]*EnumConst),
	}
	c := &checker{prog: prog}
	c.declareBuiltins()

	perFile := make([]ErrorList, len(files))
	// attribute appends the errors accumulated since mark to files[i].
	attribute := func(i, mark int) int {
		if len(c.errs) > mark {
			perFile[i] = append(perFile[i], c.errs[mark:]...)
		}
		return len(c.errs)
	}

	// Pass 1: collect typedefs, structs, enums, globals, function
	// signatures across all files so order doesn't matter.
	mark := 0
	for i, f := range files {
		// Repeats are met in later files, so the last file (a fragment's
		// only one) records nothing. When the second file repeats nothing
		// of the first, the files share no nodes (parsed apart, or decoded
		// from the disk cache), and the bookkeeping stops.
		if i >= 2 && c.skips == 0 {
			c.clean = nil
		}
		c.record = i < len(files)-1 && (i == 0 || c.skips > 0)
		for _, d := range f.Decls {
			c.collect(d)
		}
		mark = attribute(i, mark)
	}
	// Pass 2: check function bodies and global initializers. A definition
	// node that occurs more than once is checked at its last occurrence.
	var last map[*cast.FuncDecl][2]int
	if c.redefined {
		last = lastDefinitions(files)
	}
	for i, f := range files {
		for j, d := range f.Decls {
			if fd, ok := d.(*cast.FuncDecl); ok && fd.Body != nil && (last == nil || last[fd] == [2]int{i, j}) {
				c.checkFuncBody(fd)
			}
		}
		mark = attribute(i, mark)
	}
	return prog, perFile
}

// lastDefinitions maps each function-definition node to its last
// occurrence (file, declaration index).
func lastDefinitions(files []*cast.File) map[*cast.FuncDecl][2]int {
	last := make(map[*cast.FuncDecl][2]int)
	for i, f := range files {
		for j, d := range f.Decls {
			if fd, ok := d.(*cast.FuncDecl); ok && fd.Body != nil {
				last[fd] = [2]int{i, j}
			}
		}
	}
	return last
}

func (c *checker) errorf(pos ctoken.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) warnf(pos ctoken.Pos, format string, args ...any) {
	c.prog.Warnings = append(c.prog.Warnings, fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// ---------------------------------------------------------------------------
// Builtins

// builtinSignatures predeclares the external functions the corpus systems
// call: SysV shared memory, POSIX process/IPC primitives, libc math and
// I/O, sockets (for the message-passing extension), and the SafeFlow
// runtime check InitCheck. Signatures use the subset's type vocabulary.
func (c *checker) declareBuiltins() {
	voidp := &ctypes.Pointer{Elem: ctypes.VoidType}
	charp := &ctypes.Pointer{Elem: ctypes.CharType}
	intT := ctypes.IntType
	longT := ctypes.LongType
	dblT := ctypes.DoubleType

	sig := func(res ctypes.Type, params ...ctypes.Type) *ctypes.Func {
		return &ctypes.Func{Result: res, Params: params}
	}
	vsig := func(res ctypes.Type, params ...ctypes.Type) *ctypes.Func {
		return &ctypes.Func{Result: res, Params: params, Variadic: true}
	}

	builtins := map[string]*ctypes.Func{
		// SysV shared memory.
		"shmget": sig(intT, intT, longT, intT),
		"shmat":  sig(voidp, intT, voidp, intT),
		"shmdt":  sig(intT, voidp),
		"shmctl": sig(intT, intT, intT, voidp),
		// Process control and signals.
		"kill":   sig(intT, intT, intT),
		"getpid": sig(intT),
		"fork":   sig(intT),
		"exit":   sig(ctypes.VoidType, intT),
		"abort":  sig(ctypes.VoidType),
		// Semaphores / locking (lab-system wrappers).
		"semget":    sig(intT, intT, intT, intT),
		"semop":     sig(intT, intT, voidp, intT),
		"Lock":      sig(ctypes.VoidType, intT),
		"Unlock":    sig(ctypes.VoidType, intT),
		"sem_wait":  sig(intT, voidp),
		"sem_post":  sig(intT, voidp),
		"wait":      sig(intT, dblT),
		"usleep":    sig(intT, longT),
		"sleep":     sig(intT, intT),
		"nanosleep": sig(intT, voidp, voidp),
		// Stdio.
		"printf":  vsig(intT, charp),
		"fprintf": vsig(intT, voidp, charp),
		"sprintf": vsig(intT, charp, charp),
		"sscanf":  vsig(intT, charp, charp),
		"fscanf":  vsig(intT, voidp, charp),
		"fopen":   sig(voidp, charp, charp),
		"fclose":  sig(intT, voidp),
		"fgets":   sig(charp, charp, intT, voidp),
		"puts":    sig(intT, charp),
		"perror":  sig(ctypes.VoidType, charp),
		// String/memory.
		"strcmp":  sig(intT, charp, charp),
		"strncmp": sig(intT, charp, charp, longT),
		"strcpy":  sig(charp, charp, charp),
		"strncpy": sig(charp, charp, charp, longT),
		"strlen":  sig(longT, charp),
		"memset":  sig(voidp, voidp, intT, longT),
		"memcpy":  sig(voidp, voidp, voidp, longT),
		"atoi":    sig(intT, charp),
		"atof":    sig(dblT, charp),
		// Math.
		"fabs":  sig(dblT, dblT),
		"sqrt":  sig(dblT, dblT),
		"sin":   sig(dblT, dblT),
		"cos":   sig(dblT, dblT),
		"tan":   sig(dblT, dblT),
		"atan2": sig(dblT, dblT, dblT),
		"pow":   sig(dblT, dblT, dblT),
		"exp":   sig(dblT, dblT),
		"log":   sig(dblT, dblT),
		"floor": sig(dblT, dblT),
		"ceil":  sig(dblT, dblT),
		// Sockets (message-passing extension, §3.4.3).
		"socket":  sig(intT, intT, intT, intT),
		"bind":    sig(intT, intT, voidp, intT),
		"connect": sig(intT, intT, voidp, intT),
		"recv":    sig(longT, intT, voidp, longT, intT),
		"send":    sig(longT, intT, voidp, longT, intT),
		"close":   sig(intT, intT),
		"read":    sig(longT, intT, voidp, longT),
		"write":   sig(longT, intT, voidp, longT),
		// Hardware interface stubs used by the corpus.
		"readSensor":  sig(dblT, intT),
		"writeDA":     sig(ctypes.VoidType, intT, dblT),
		"gettimeofus": sig(longT),
		// SafeFlow runtime.
		"InitCheck": vsig(intT, voidp, longT),
	}
	// Sorted, so the module's function order is the same on every compile.
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := &Function{Name: name, Type: builtins[name], IsBuiltin: true}
		c.prog.Funcs = append(c.prog.Funcs, fn)
		c.prog.FuncByName[name] = fn
	}
}

// ---------------------------------------------------------------------------
// Scope helpers

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]Object)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declareLocal(name string, obj Object, pos ctoken.Pos) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		c.errorf(pos, "redeclaration of %q", name)
	}
	top[name] = obj
}

func (c *checker) lookup(name string) Object {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if obj, ok := c.scopes[i][name]; ok {
			return obj
		}
	}
	if ec, ok := c.prog.Enums[name]; ok {
		return ec
	}
	if g, ok := c.prog.GlobalMap[name]; ok {
		return g
	}
	if f, ok := c.prog.FuncByName[name]; ok {
		return f
	}
	return nil
}

// ---------------------------------------------------------------------------
// Type resolution

// structKey gives anonymous tags unique names per position.
func structKey(st *cast.StructType) string {
	if st.Tag != "" {
		return st.Tag
	}
	return fmt.Sprintf("@anon_%s_%d_%d", st.Keyword.File, st.Keyword.Line, st.Keyword.Col)
}

func (c *checker) resolveType(te cast.TypeExpr) ctypes.Type {
	switch t := te.(type) {
	case *cast.BaseType:
		return c.resolveBase(t)
	case *cast.NamedType:
		if ty, ok := c.prog.Typedefs[t.Name]; ok {
			return ty
		}
		c.errorf(t.NamePos, "unknown type name %q", t.Name)
		return ctypes.IntType
	case *cast.StructType:
		return c.resolveStruct(t)
	case *cast.EnumType:
		c.resolveEnum(t)
		return ctypes.IntType
	case *cast.PointerType:
		return &ctypes.Pointer{Elem: c.resolveType(t.Elem)}
	case *cast.ArrayType:
		elem := c.resolveType(t.Elem)
		var n int64 = 0
		if t.Len != nil {
			v, ok := c.constEval(t.Len)
			if !ok || v <= 0 {
				c.errorf(t.Len.Pos(), "array length must be a positive constant")
				v = 1
			}
			n = v
		}
		return &ctypes.Array{Elem: elem, Len: n}
	case *cast.FuncType:
		ft := &ctypes.Func{Result: c.resolveType(t.Result), Variadic: t.Variadic}
		for _, p := range t.Params {
			ft.Params = append(ft.Params, c.resolveType(p.Type))
		}
		return ft
	default:
		return ctypes.IntType
	}
}

func (c *checker) resolveBase(t *cast.BaseType) ctypes.Type {
	switch t.Name {
	case "void":
		return ctypes.VoidType
	case "char":
		return ctypes.CharType
	case "unsigned char":
		return ctypes.UCharType
	case "short":
		return ctypes.ShortType
	case "unsigned short":
		return ctypes.UShortType
	case "int":
		return ctypes.IntType
	case "unsigned", "unsigned int":
		return ctypes.UIntType
	case "long":
		return ctypes.LongType
	case "unsigned long":
		return ctypes.ULongType
	case "float":
		return ctypes.FloatType
	case "double", "long double":
		return ctypes.DoubleType
	default:
		c.errorf(t.NamePos, "unsupported base type %q", t.Name)
		return ctypes.IntType
	}
}

func (c *checker) resolveStruct(st *cast.StructType) ctypes.Type {
	key := structKey(st)
	if !st.Defined {
		if s, ok := c.prog.Structs[key]; ok {
			return s
		}
		// Forward reference: create an empty placeholder that the later
		// definition fills in (our corpus always defines before use through
		// headers, but pointer-to-forward-struct must work).
		s := ctypes.NewStruct(key, st.IsUnion, nil)
		c.prog.Structs[key] = s
		return s
	}
	c.tagDef = true
	var fields []ctypes.Field
	for _, f := range st.Fields {
		fields = append(fields, ctypes.Field{Name: f.Name, Type: c.resolveType(f.Type)})
	}
	s := ctypes.NewStruct(key, st.IsUnion, fields)
	if prev, ok := c.prog.Structs[key]; ok {
		if len(prev.Fields) == 0 {
			// Fill the forward placeholder in place so earlier pointers
			// resolve to the completed type.
			*prev = *s
			c.gen++
			return prev
		}
		// The same header definition re-parsed in another translation
		// unit: reuse the existing nominal type when structurally equal.
		if structurallyEqual(prev, s) {
			return prev
		}
		c.errorf(st.Keyword, "conflicting definitions of %s", s)
		c.gen++
	}
	c.prog.Structs[key] = s
	return s
}

// structurallyEqual compares struct definitions by field names, offsets
// and rendered types — sufficient to recognize the same header definition
// parsed in different translation units.
func structurallyEqual(a, b *ctypes.Struct) bool {
	if a.IsUnion != b.IsUnion || len(a.Fields) != len(b.Fields) || a.Size() != b.Size() {
		return false
	}
	for i := range a.Fields {
		fa, fb := a.Fields[i], b.Fields[i]
		if fa.Name != fb.Name || fa.Offset != fb.Offset || fa.Type.String() != fb.Type.String() {
			return false
		}
	}
	return true
}

func (c *checker) resolveEnum(et *cast.EnumType) {
	if !et.Defined {
		return
	}
	c.tagDef = true
	var next int64
	for _, m := range et.Members {
		if m.Value != nil {
			if v, ok := c.constEval(m.Value); ok {
				next = v
			} else {
				c.errorf(m.Value.Pos(), "enumerator value must be constant")
			}
		}
		if old, ok := c.prog.Enums[m.Name]; ok && old.Value != next {
			c.gen++
		}
		c.prog.Enums[m.Name] = &EnumConst{Name: m.Name, Value: next}
		next++
	}
}

// ---------------------------------------------------------------------------
// Constant evaluation (array sizes, enum values, case labels)

func (c *checker) constEval(e cast.Expr) (int64, bool) {
	switch x := cast.Unparen(e).(type) {
	case *cast.IntLit:
		return x.Value, true
	case *cast.Ident:
		if ec, ok := c.prog.Enums[x.Name]; ok {
			return ec.Value, true
		}
		return 0, false
	case *cast.SizeofExpr:
		if x.Type != nil {
			return c.resolveType(x.Type).Size(), true
		}
		if t := c.prog.ExprTypes[x.X]; t != nil {
			return t.Size(), true
		}
		return 0, false
	case *cast.UnaryExpr:
		v, ok := c.constEval(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case ctoken.MINUS:
			return -v, true
		case ctoken.TILDE:
			return ^v, true
		case ctoken.NOT:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *cast.BinaryExpr:
		a, ok1 := c.constEval(x.X)
		b, ok2 := c.constEval(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case ctoken.PLUS:
			return a + b, true
		case ctoken.MINUS:
			return a - b, true
		case ctoken.STAR:
			return a * b, true
		case ctoken.SLASH:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case ctoken.PERCENT:
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case ctoken.SHL:
			return a << uint(b), true
		case ctoken.SHR:
			return a >> uint(b), true
		case ctoken.AMP:
			return a & b, true
		case ctoken.PIPE:
			return a | b, true
		case ctoken.CARET:
			return a ^ b, true
		}
		return 0, false
	case *cast.CastExpr:
		return c.constEval(x.X)
	default:
		return 0, false
	}
}

// ConstEval exposes constant evaluation for downstream passes (annotations
// use sizeof in offsets/sizes).
func (p *Program) ConstEval(e cast.Expr) (int64, bool) {
	c := &checker{prog: p}
	return c.constEval(e)
}

// ---------------------------------------------------------------------------
// Declaration collection

// collect is collectDecl, skipping a repeat that could change nothing
// (see AnalyzeUnits).
func (c *checker) collect(d cast.Decl) {
	if !repeatable(d) {
		c.collectDecl(d)
		return
	}
	if gen, seen := c.clean[d]; seen && gen == c.gen {
		c.skips++
		return
	}
	errs, gen := len(c.errs), c.gen
	c.tagDef = false
	c.collectDecl(d)
	if c.record && len(c.errs) == errs && !c.tagDef {
		if c.clean == nil {
			c.clean = make(map[cast.Decl]int)
		}
		// A change made by this very collection leaves gen past the
		// recorded value, so the entry never matches.
		c.clean[d] = gen
	}
}

// repeatable reports whether collecting d again only resolves and
// compares its type: a global without initializer, or a prototype with
// no body and no annotations.
func repeatable(d cast.Decl) bool {
	switch dd := d.(type) {
	case *cast.VarDecl:
		return dd.Init == nil
	case *cast.FuncDecl:
		return dd.Body == nil && len(dd.Annotations) == 0
	}
	return false
}

func (c *checker) collectDecl(d cast.Decl) {
	switch dd := d.(type) {
	case *cast.TypedefDecl:
		t := c.resolveType(dd.Type)
		if prev, ok := c.prog.Typedefs[dd.Name]; ok && !prev.Equal(t) {
			c.gen++
		}
		c.prog.Typedefs[dd.Name] = t
	case *cast.RecordDecl:
		c.resolveType(dd.Type)
	case *cast.VarDecl:
		t := c.resolveType(dd.Type)
		if prev, ok := c.prog.GlobalMap[dd.Name]; ok {
			if !prev.Type.Equal(t) {
				c.errorf(dd.NamePos, "conflicting declarations of global %q", dd.Name)
			}
			if dd.Init != nil {
				prev.Decl = dd
			}
			return
		}
		g := &GlobalVar{Name: dd.Name, Type: t, Decl: dd}
		c.prog.Globals = append(c.prog.Globals, g)
		c.prog.GlobalMap[dd.Name] = g
	case *cast.FuncDecl:
		ft, params := c.resolveFuncType(dd)
		prev, exists := c.prog.FuncByName[dd.Name]
		if exists {
			if prev.IsBuiltin {
				// User definition overrides the builtin signature.
				prev.IsBuiltin = false
				prev.Type = ft
			} else if !prev.Type.Equal(ft) {
				c.errorf(dd.NamePos, "conflicting declarations of function %q", dd.Name)
			}
			prev.Annotations = append(prev.Annotations, dd.Annotations...)
			if dd.Body != nil {
				if prev.IsDefined {
					c.errorf(dd.NamePos, "redefinition of function %q", dd.Name)
					c.redefined = true
				}
				prev.IsDefined = true
				prev.Decl = dd
				prev.Params = params
				for _, p := range params {
					p.Fn = prev
				}
			}
			return
		}
		fn := &Function{
			Name:   dd.Name,
			Type:   ft,
			Decl:   dd,
			Params: params,
			// Capped, so a later append copies instead of writing into
			// the shared AST's array.
			Annotations: dd.Annotations[:len(dd.Annotations):len(dd.Annotations)],
			IsDefined:   dd.Body != nil,
		}
		for _, p := range params {
			p.Fn = fn
		}
		c.prog.Funcs = append(c.prog.Funcs, fn)
		c.prog.FuncByName[dd.Name] = fn
	}
}

func (c *checker) resolveFuncType(fd *cast.FuncDecl) (*ctypes.Func, []*ParamVar) {
	ft := &ctypes.Func{Result: c.resolveType(fd.Type.Result), Variadic: fd.Type.Variadic}
	var params []*ParamVar
	for i, p := range fd.Type.Params {
		pt := c.resolveType(p.Type)
		ft.Params = append(ft.Params, pt)
		params = append(params, &ParamVar{Name: p.Name, Type: pt, Index: i})
	}
	return ft, params
}

// ---------------------------------------------------------------------------
// Body checking

func (c *checker) checkFuncBody(fd *cast.FuncDecl) {
	fn := c.prog.FuncByName[fd.Name]
	if fn == nil || fn.Decl != fd {
		return
	}
	c.curFn = fn
	c.pushScope()
	for _, p := range fn.Params {
		if p.Name != "" {
			c.declareLocal(p.Name, p, fd.NamePos)
		}
	}
	c.checkStmt(fd.Body)
	c.popScope()
	c.curFn = nil
}

func (c *checker) checkStmt(s cast.Stmt) {
	switch st := s.(type) {
	case *cast.BlockStmt:
		c.pushScope()
		for _, sub := range st.List {
			c.checkStmt(sub)
		}
		c.popScope()
	case *cast.DeclStmt:
		for _, vd := range st.Decls {
			t := c.resolveType(vd.Type)
			lv := &LocalVar{Name: vd.Name, Type: t, Decl: vd, Fn: c.curFn}
			c.declareLocal(vd.Name, lv, vd.NamePos)
			if vd.Init != nil {
				c.checkInit(t, vd.Init)
			}
		}
	case *cast.ExprStmt:
		c.checkExpr(st.X)
	case *cast.EmptyStmt:
	case *cast.IfStmt:
		c.checkCond(st.Cond)
		c.checkStmt(st.Then)
		if st.Else != nil {
			c.checkStmt(st.Else)
		}
	case *cast.WhileStmt:
		c.checkCond(st.Cond)
		c.checkStmt(st.Body)
	case *cast.DoWhileStmt:
		c.checkStmt(st.Body)
		c.checkCond(st.Cond)
	case *cast.ForStmt:
		c.pushScope()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			c.checkCond(st.Cond)
		}
		if st.Post != nil {
			c.checkExpr(st.Post)
		}
		c.checkStmt(st.Body)
		c.popScope()
	case *cast.ReturnStmt:
		want := c.curFn.Type.Result
		if st.X != nil {
			got := c.checkExpr(st.X)
			if ctypes.IsVoid(want) {
				c.errorf(st.RetPos, "return with value in void function %q", c.curFn.Name)
			} else if got != nil && !assignable(want, got) {
				c.errorf(st.RetPos, "cannot return %s from function returning %s", got, want)
			}
		} else if !ctypes.IsVoid(want) {
			c.warnf(st.RetPos, "return without value in function %q returning %s", c.curFn.Name, want)
		}
	case *cast.BreakStmt, *cast.ContinueStmt, *cast.GotoStmt:
	case *cast.SwitchStmt:
		t := c.checkExpr(st.Tag)
		if t != nil && !ctypes.IsInteger(t) {
			c.errorf(st.Tag.Pos(), "switch tag must be an integer, have %s", t)
		}
		for _, cl := range st.Body {
			for _, v := range cl.Values {
				if _, ok := c.constEval(v); !ok {
					c.errorf(v.Pos(), "case label must be a constant expression")
				}
				c.checkExpr(v)
			}
			c.pushScope()
			for _, sub := range cl.Body {
				c.checkStmt(sub)
			}
			c.popScope()
		}
	case *cast.LabeledStmt:
		c.checkStmt(st.Stmt)
	case *cast.AnnotatedStmt:
		c.checkStmt(st.Stmt)
	default:
		c.errorf(s.Pos(), "unhandled statement %T", s)
	}
}

func (c *checker) checkCond(e cast.Expr) {
	t := c.checkExpr(e)
	if t != nil && !ctypes.IsScalar(t) {
		c.errorf(e.Pos(), "condition must be scalar, have %s", t)
	}
}

func (c *checker) checkInit(want ctypes.Type, init cast.Expr) {
	if call, ok := init.(*cast.CallExpr); ok {
		if id, ok := call.Fun.(*cast.Ident); ok && id.Name == "__initlist" {
			// Braced initializer: check each element against the element or
			// field type.
			switch wt := want.(type) {
			case *ctypes.Array:
				for _, a := range call.Args {
					c.checkInit(wt.Elem, a)
				}
			case *ctypes.Struct:
				for i, a := range call.Args {
					if i < len(wt.Fields) {
						c.checkInit(wt.Fields[i].Type, a)
					} else {
						c.errorf(a.Pos(), "too many initializers for %s", wt)
					}
				}
			default:
				if len(call.Args) == 1 {
					c.checkInit(want, call.Args[0])
				} else {
					c.errorf(init.Pos(), "scalar initializer list with %d elements", len(call.Args))
				}
			}
			c.prog.ExprTypes[init] = want
			return
		}
	}
	got := c.checkExpr(init)
	if got != nil && !assignable(want, got) {
		c.errorf(init.Pos(), "cannot initialize %s with %s", want, got)
	}
}

// assignable implements the subset's assignment compatibility: identical
// types, arithmetic conversions, pointer = compatible pointer, pointer =
// integer constant 0 handled at call sites (we accept int -> pointer with
// a warning elsewhere; keep strict here but allow void* wildcards).
func assignable(dst, src ctypes.Type) bool {
	if dst.Equal(src) {
		return true
	}
	if (ctypes.IsInteger(dst) || ctypes.IsFloat(dst)) && (ctypes.IsInteger(src) || ctypes.IsFloat(src)) {
		return true
	}
	if ctypes.IsPointer(dst) && ctypes.IsPointer(src) {
		return ctypes.Compatible(dst, src)
	}
	// Integer to pointer (NULL as 0) — accepted; restriction P3 polices the
	// shared-memory cases.
	if ctypes.IsPointer(dst) && ctypes.IsInteger(src) {
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Expression checking

func (c *checker) checkExpr(e cast.Expr) ctypes.Type {
	t := c.typeExpr(e)
	if t != nil {
		c.prog.ExprTypes[e] = t
	}
	return t
}

func (c *checker) typeExpr(e cast.Expr) ctypes.Type {
	switch x := e.(type) {
	case *cast.Ident:
		obj := c.lookup(x.Name)
		if obj == nil {
			c.errorf(x.NamePos, "undeclared identifier %q", x.Name)
			return ctypes.IntType
		}
		c.prog.Uses[x] = obj
		t := obj.ObjType()
		// Arrays decay to pointers in expression context; IndexExpr handles
		// the array case explicitly by looking at the undecayed type.
		return t
	case *cast.IntLit:
		return ctypes.IntType
	case *cast.FloatLit:
		return ctypes.DoubleType
	case *cast.StrLit:
		return &ctypes.Pointer{Elem: ctypes.CharType}
	case *cast.ParenExpr:
		return c.checkExpr(x.X)
	case *cast.UnaryExpr:
		return c.typeUnary(x)
	case *cast.PostfixExpr:
		t := c.checkExpr(x.X)
		c.requireLvalue(x.X)
		return t
	case *cast.BinaryExpr:
		return c.typeBinary(x)
	case *cast.AssignExpr:
		return c.typeAssign(x)
	case *cast.CondExpr:
		c.checkCond(x.Cond)
		t1 := c.checkExpr(x.Then)
		t2 := c.checkExpr(x.Else)
		if t1 != nil && t2 != nil {
			return usualArith(t1, t2)
		}
		return t1
	case *cast.CallExpr:
		return c.typeCall(x)
	case *cast.IndexExpr:
		return c.typeIndex(x)
	case *cast.MemberExpr:
		return c.typeMember(x)
	case *cast.CastExpr:
		c.checkExpr(x.X)
		return c.resolveType(x.Type)
	case *cast.SizeofExpr:
		if x.X != nil {
			c.checkExpr(x.X)
		}
		return ctypes.ULongType
	default:
		c.errorf(e.Pos(), "unhandled expression %T", e)
		return ctypes.IntType
	}
}

func (c *checker) typeUnary(x *cast.UnaryExpr) ctypes.Type {
	t := c.checkExpr(x.X)
	if t == nil {
		return nil
	}
	switch x.Op {
	case ctoken.MINUS, ctoken.TILDE:
		if !ctypes.IsInteger(t) && !ctypes.IsFloat(t) {
			c.errorf(x.OpPos, "invalid operand type %s for unary %s", t, x.Op)
		}
		return t
	case ctoken.NOT:
		return ctypes.IntType
	case ctoken.STAR:
		if arr, ok := t.(*ctypes.Array); ok {
			return arr.Elem
		}
		p, ok := t.(*ctypes.Pointer)
		if !ok {
			c.errorf(x.OpPos, "cannot dereference non-pointer type %s", t)
			return ctypes.IntType
		}
		return p.Elem
	case ctoken.AMP:
		c.requireLvalue(x.X)
		return &ctypes.Pointer{Elem: t}
	case ctoken.INC, ctoken.DEC:
		c.requireLvalue(x.X)
		return t
	default:
		c.errorf(x.OpPos, "unhandled unary operator %s", x.Op)
		return t
	}
}

func (c *checker) typeBinary(x *cast.BinaryExpr) ctypes.Type {
	lt := c.checkExpr(x.X)
	rt := c.checkExpr(x.Y)
	if lt == nil || rt == nil {
		return ctypes.IntType
	}
	lt = decay(lt)
	rt = decay(rt)
	switch x.Op {
	case ctoken.PLUS, ctoken.MINUS:
		lp, lIsP := lt.(*ctypes.Pointer)
		rp, rIsP := rt.(*ctypes.Pointer)
		switch {
		case lIsP && rIsP:
			if x.Op == ctoken.MINUS {
				return ctypes.LongType
			}
			c.errorf(x.OpPos, "cannot add two pointers")
			return lt
		case lIsP:
			if !ctypes.IsInteger(rt) {
				c.errorf(x.OpPos, "pointer arithmetic requires integer offset, have %s", rt)
			}
			_ = lp
			return lt
		case rIsP:
			if x.Op == ctoken.MINUS {
				c.errorf(x.OpPos, "cannot subtract pointer from integer")
			}
			_ = rp
			return rt
		default:
			return usualArith(lt, rt)
		}
	case ctoken.STAR, ctoken.SLASH:
		if !(isArith(lt) && isArith(rt)) {
			c.errorf(x.OpPos, "invalid operands %s and %s for %s", lt, rt, x.Op)
		}
		return usualArith(lt, rt)
	case ctoken.PERCENT, ctoken.AMP, ctoken.PIPE, ctoken.CARET, ctoken.SHL, ctoken.SHR:
		if !(ctypes.IsInteger(lt) && ctypes.IsInteger(rt)) {
			c.errorf(x.OpPos, "operator %s requires integer operands, have %s and %s", x.Op, lt, rt)
		}
		return usualArith(lt, rt)
	case ctoken.LT, ctoken.GT, ctoken.LE, ctoken.GE, ctoken.EQ, ctoken.NE,
		ctoken.LAND, ctoken.LOR:
		return ctypes.IntType
	default:
		c.errorf(x.OpPos, "unhandled binary operator %s", x.Op)
		return ctypes.IntType
	}
}

func (c *checker) typeAssign(x *cast.AssignExpr) ctypes.Type {
	lt := c.checkExpr(x.LHS)
	rt := c.checkExpr(x.RHS)
	c.requireLvalue(x.LHS)
	if lt == nil || rt == nil {
		return lt
	}
	if x.Op == ctoken.ASSIGN {
		if !assignable(lt, decay(rt)) {
			c.errorf(x.OpPos, "cannot assign %s to %s", rt, lt)
		}
		return lt
	}
	// Compound assignments require arithmetic (or ptr += int).
	if p, ok := lt.(*ctypes.Pointer); ok {
		_ = p
		if (x.Op == ctoken.ADDASSIGN || x.Op == ctoken.SUBASSIGN) && ctypes.IsInteger(rt) {
			return lt
		}
		c.errorf(x.OpPos, "invalid compound assignment to pointer")
		return lt
	}
	if !(isArith(lt) && isArith(decay(rt))) {
		c.errorf(x.OpPos, "invalid compound assignment operands %s and %s", lt, rt)
	}
	return lt
}

func (c *checker) typeCall(x *cast.CallExpr) ctypes.Type {
	id, ok := cast.Unparen(x.Fun).(*cast.Ident)
	if !ok {
		c.errorf(x.Fun.Pos(), "indirect calls are outside the SafeFlow subset (direct calls only)")
		for _, a := range x.Args {
			c.checkExpr(a)
		}
		return ctypes.IntType
	}
	fn, exists := c.prog.FuncByName[id.Name]
	if !exists {
		// Implicit declaration: legacy C; accept as variadic int with a
		// warning so old corpus code parses.
		c.warnf(id.NamePos, "implicit declaration of function %q", id.Name)
		fn = &Function{
			Name:      id.Name,
			Type:      &ctypes.Func{Result: ctypes.IntType, Variadic: true},
			IsBuiltin: true,
		}
		c.prog.Funcs = append(c.prog.Funcs, fn)
		c.prog.FuncByName[id.Name] = fn
	}
	c.prog.Uses[id] = fn
	for i, a := range x.Args {
		at := c.checkExpr(a)
		if i < len(fn.Type.Params) && at != nil {
			want := fn.Type.Params[i]
			if !assignable(want, decay(at)) {
				c.errorf(a.Pos(), "argument %d to %q: cannot pass %s as %s", i+1, fn.Name, at, want)
			}
		}
	}
	if !fn.Type.Variadic && len(x.Args) != len(fn.Type.Params) {
		c.errorf(x.LparenPos, "call to %q with %d args, want %d", fn.Name, len(x.Args), len(fn.Type.Params))
	}
	if fn.Type.Variadic && len(x.Args) < len(fn.Type.Params) {
		c.errorf(x.LparenPos, "call to %q with %d args, want at least %d", fn.Name, len(x.Args), len(fn.Type.Params))
	}
	return fn.Type.Result
}

func (c *checker) typeIndex(x *cast.IndexExpr) ctypes.Type {
	bt := c.checkExpr(x.X)
	it := c.checkExpr(x.Index)
	if it != nil && !ctypes.IsInteger(it) {
		c.errorf(x.Index.Pos(), "array index must be an integer, have %s", it)
	}
	switch t := bt.(type) {
	case *ctypes.Array:
		return t.Elem
	case *ctypes.Pointer:
		return t.Elem
	default:
		if bt != nil {
			c.errorf(x.X.Pos(), "cannot index non-array type %s", bt)
		}
		return ctypes.IntType
	}
}

func (c *checker) typeMember(x *cast.MemberExpr) ctypes.Type {
	bt := c.checkExpr(x.X)
	if bt == nil {
		return nil
	}
	var st *ctypes.Struct
	if x.Arrow {
		p, ok := bt.(*ctypes.Pointer)
		if !ok {
			c.errorf(x.DotPos, "-> on non-pointer type %s", bt)
			return ctypes.IntType
		}
		st, ok = p.Elem.(*ctypes.Struct)
		if !ok {
			c.errorf(x.DotPos, "-> on pointer to non-struct type %s", bt)
			return ctypes.IntType
		}
	} else {
		var ok bool
		st, ok = bt.(*ctypes.Struct)
		if !ok {
			c.errorf(x.DotPos, ". on non-struct type %s", bt)
			return ctypes.IntType
		}
	}
	f, ok := st.FieldByName(x.Name)
	if !ok {
		c.errorf(x.DotPos, "no field %q in %s", x.Name, st)
		return ctypes.IntType
	}
	return f.Type
}

func (c *checker) requireLvalue(e cast.Expr) {
	switch x := cast.Unparen(e).(type) {
	case *cast.Ident:
		if _, isFn := c.prog.Uses[x].(*Function); isFn {
			c.errorf(x.NamePos, "function %q is not an lvalue", x.Name)
		}
	case *cast.IndexExpr, *cast.MemberExpr:
	case *cast.UnaryExpr:
		if x.Op != ctoken.STAR {
			c.errorf(e.Pos(), "expression is not an lvalue")
		}
	default:
		c.errorf(e.Pos(), "expression is not an lvalue")
	}
}

// decay converts array types to pointers for rvalue contexts.
func decay(t ctypes.Type) ctypes.Type {
	if a, ok := t.(*ctypes.Array); ok {
		return &ctypes.Pointer{Elem: a.Elem}
	}
	return t
}

func isArith(t ctypes.Type) bool { return ctypes.IsInteger(t) || ctypes.IsFloat(t) }

// usualArith implements the usual arithmetic conversions (simplified).
func usualArith(a, b ctypes.Type) ctypes.Type {
	rank := func(t ctypes.Type) int {
		bt, ok := t.(*ctypes.Basic)
		if !ok {
			return 0
		}
		switch bt.Kind {
		case ctypes.Double:
			return 10
		case ctypes.Float:
			return 9
		case ctypes.ULong:
			return 8
		case ctypes.Long:
			return 7
		case ctypes.UInt:
			return 6
		default:
			return 5 // int and narrower promote to int
		}
	}
	ra, rb := rank(a), rank(b)
	if ra == 0 || rb == 0 {
		if ra >= rb {
			return a
		}
		return b
	}
	hi := a
	if rb > ra {
		hi = b
	}
	if rank(hi) <= 5 {
		return ctypes.IntType
	}
	return hi
}
