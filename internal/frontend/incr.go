// Incremental frontend: per-translation-unit fragment compilation with a
// content-keyed fragment cache and a module linker.
//
// A session's FragmentCompiler keeps, per .c file, the fully lowered and
// promoted single-TU module ("fragment") keyed by the TU's preprocessed
// text. On an update only the TUs whose expansion changed are recompiled;
// unchanged fragments are reused as-is — including their per-function
// body hashes, which feed the value-flow scheduler's dependency graph.
// The fragments are then linked: one canonical function and global is
// chosen per name (first appearance wins the module slot, a definition
// replaces a declaration in place) and every operand is rewired onto the
// canonical objects, reproducing the whole-module compile's declaration
// order so downstream reports stay byte-identical. Which declaration
// owns each slot depends only on the fragments' declaration shapes, so
// the slot table is kept across links and rebuilt only when an edit
// changes some fragment's shape; a body edit relinks by table lookup.
//
// The linker is deliberately conservative: any situation the whole-module
// pipeline would handle differently from naive per-TU merging — duplicate
// definitions, signature or global-type mismatches, conflicting struct
// layouts, conflicting initializers, or any compile diagnostic at all —
// fails the fragment path, and the caller falls back to the full
// pipeline (which reproduces the proper error or degraded report).
package frontend

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"

	"safeflow/internal/cast"
	"safeflow/internal/cpp"
	"safeflow/internal/csema"
	"safeflow/internal/ctypes"
	"safeflow/internal/guard"
	"safeflow/internal/ir"
	"safeflow/internal/irgen"
	"safeflow/internal/metrics"
)

// HashFunc fingerprints one lowered function body (supplied by the
// caller to avoid a frontend→vfg dependency).
type HashFunc func(fn *ir.Function, assertVars map[*ir.Call]string) uint64

// fragment is one translation unit's lowered, promoted module plus the
// content hashes of the functions it defines, computed once when the
// fragment is built (so a reused fragment's hints are intrinsically
// consistent with its IR), and the struct types its unit defined. A
// declaration's shape is compared structurally (sameType) against the
// types in place, so building a fragment renders no type.
type fragment struct {
	key        [sha256.Size]byte
	res        *irgen.Result
	bodyHashes map[string]uint64
	structs    map[string]*ctypes.Struct // the unit's struct types by tag
}

// FragmentCompiler compiles translation units independently and links
// them into one module, recompiling only the units whose preprocessed
// content changed. One compiler serves one session: fragments are
// mutated during linking (operand rewiring) and must not be shared.
type FragmentCompiler struct {
	name       string
	opts       Options
	hashFn     HashFunc
	frags      map[string]*fragment
	expansions map[string]*expansion
	// table is the slot table of the last link, nil before the first.
	table *linkTable
	// The previous link's output, returned verbatim when the fragment
	// list is the table's, pointer-for-pointer — the comment-only-edit
	// case, where rebuilt fragments were adopted back into their
	// semantically identical predecessors. Nil when the link failed.
	lastRes    *irgen.Result
	lastHashes map[string]uint64
}

// NewFragmentCompiler returns a compiler for one session. hashFn may be
// nil, in which case no body hashes are produced. opts.Metrics is unused:
// each Compile call reports into the collector it is given.
func NewFragmentCompiler(name string, opts Options, hashFn HashFunc) *FragmentCompiler {
	return &FragmentCompiler{
		name: name, opts: opts, hashFn: hashFn,
		frags:      make(map[string]*fragment),
		expansions: make(map[string]*expansion),
	}
}

// expansion caches one unit's preprocessed text, its parse-cache key and
// the exact files the preprocessor read to produce it. The cache is fresh
// while every dependency's current content is unchanged — unchanged
// files in a session keep their identical string values, so the
// comparison hits the pointer-equality fast path — and a fresh expansion
// is never hashed again.
type expansion struct {
	text string
	key  [sha256.Size]byte
	deps map[string]string
}

func (e *expansion) fresh(sources cpp.Source) bool {
	for name, prev := range e.deps {
		cur, err := sources.ReadFile(name)
		if err != nil || cur != prev {
			return false
		}
	}
	return true
}

// recordingSource logs every file the preprocessor reads.
type recordingSource struct {
	src  cpp.Source
	deps map[string]string
}

func (r *recordingSource) ReadFile(name string) (string, error) {
	text, err := r.src.ReadFile(name)
	if err == nil {
		r.deps[name] = text
	}
	return text, err
}

// Compile builds (or reuses) one fragment per cFile and links them,
// reporting its parse-cache and include-memo counts into col (nil-safe).
// ok=false means the fragment path cannot represent this input (compile
// diagnostics, link conflicts, cancellation) and the caller must fall
// back to the full pipeline.
func (fc *FragmentCompiler) Compile(ctx context.Context, sources cpp.Source, cFiles []string, col *metrics.Collector) (res *irgen.Result, bodyHashes map[string]uint64, ok bool) {
	// Panic-isolate the whole fragment path: a crash anywhere inside it
	// degrades to the full pipeline instead of taking the session down.
	err := guard.Run("frontend", "fragments", func() error {
		res, bodyHashes, ok = fc.compile(ctx, sources, cFiles, col)
		return nil
	})
	if err != nil {
		return nil, nil, false
	}
	return res, bodyHashes, ok
}

func (fc *FragmentCompiler) compile(ctx context.Context, sources cpp.Source, cFiles []string, col *metrics.Collector) (*irgen.Result, map[string]uint64, bool) {
	opts := fc.opts
	opts.Metrics = col
	live := make(map[string]bool, len(cFiles))
	frags := make([]*fragment, 0, len(cFiles))
	ic := newIncludeCache()
	defer ic.report(col)
	for _, cf := range cFiles {
		if ctx.Err() != nil {
			return nil, nil, false
		}
		live[cf] = true
		text, key, segs, ok := fc.expand(sources, cf, opts, ic)
		if !ok {
			return nil, nil, false
		}
		if f := fc.frags[cf]; f != nil && f.key == key {
			frags = append(frags, f)
			continue
		}
		f, ok := fc.build(cf, text, segs, key, opts, ic)
		if !ok {
			delete(fc.frags, cf) // a stale fragment must not outlive its source
			return nil, nil, false
		}
		// A rebuild that is semantically identical to the old fragment —
		// same symbols, layouts, body hashes (which cover positions and
		// annotation facts) — adopts the old fragment's IR under the new
		// content key, keeping its identity stable for link reuse.
		if old := fc.frags[cf]; old != nil && fc.sameFragment(old, f) {
			old.key = f.key
			frags = append(frags, old)
			continue
		}
		fc.frags[cf] = f
		frags = append(frags, f)
	}
	// Drop fragments and cached expansions of removed files.
	for cf := range fc.frags {
		if !live[cf] {
			delete(fc.frags, cf)
		}
	}
	for cf := range fc.expansions {
		if !live[cf] {
			delete(fc.expansions, cf)
		}
	}
	if fc.lastRes != nil && fc.table.holds(frags) {
		return fc.lastRes, fc.lastHashes, true
	}
	if !fc.table.fits(frags) {
		fc.table = newLinkTable(frags)
	}
	fc.lastRes, fc.lastHashes = nil, nil
	if !fc.table.ok {
		return nil, nil, false
	}
	fc.lastRes, fc.lastHashes = fc.table.link(fc.name, frags)
	return fc.lastRes, fc.lastHashes, true
}

// sameShape reports whether two fragments have the same declaration
// shape: the same globals (name, element type, HasInit) and functions
// (name, signature, IsDecl) in the same order, and the same struct
// layouts, types compared structurally. A link's slot table is a
// function of its fragments' shapes alone.
func sameShape(a, b *fragment) bool {
	am, bm := a.res.Module, b.res.Module
	if len(am.Funcs) != len(bm.Funcs) || len(am.Globals) != len(bm.Globals) ||
		len(a.structs) != len(b.structs) {
		return false
	}
	for i, g := range am.Globals {
		o := bm.Globals[i]
		if g.Name != o.Name || g.HasInit != o.HasInit || !sameType(g.Elem, o.Elem) {
			return false
		}
	}
	for i, fn := range am.Funcs {
		o := bm.Funcs[i]
		if fn.Name != o.Name || fn.IsDecl != o.IsDecl || !sameType(fn.Sig, o.Sig) {
			return false
		}
	}
	for tag, st := range a.structs {
		if ost, ok := b.structs[tag]; !ok || !sameType(st, ost) {
			return false
		}
	}
	return true
}

// sameFragment reports whether two compiles of one unit are semantically
// interchangeable: the same declaration shape, the same declaration
// positions and initializers, and identical body hashes — which cover
// instruction positions, assert variables, and annotation facts, so
// adopted IR renders byte-identical reports.
func (fc *FragmentCompiler) sameFragment(a, b *fragment) bool {
	if fc.hashFn == nil {
		return false // without body hashes there is no semantic signal
	}
	if !sameShape(a, b) || len(a.bodyHashes) != len(b.bodyHashes) {
		return false
	}
	am, bm := a.res.Module, b.res.Module
	for i, fn := range am.Funcs {
		if fn.Pos != bm.Funcs[i].Pos {
			return false
		}
	}
	for i, g := range am.Globals {
		o := bm.Globals[i]
		if g.Pos != o.Pos || !slices.Equal(g.InitInts, o.InitInts) {
			return false
		}
	}
	for name, h := range a.bodyHashes {
		oh, ok := b.bodyHashes[name]
		if !ok || h != oh {
			return false
		}
	}
	return true
}

// expand preprocesses one unit exactly as compileUnitDiags does and keys
// it, skipping the preprocessor and the hash entirely while the unit's
// recorded include closure is unchanged (and then returning no segments).
func (fc *FragmentCompiler) expand(sources cpp.Source, cf string, opts Options, ic *includeCache) (string, [sha256.Size]byte, []cpp.Segment, bool) {
	if e := fc.expansions[cf]; e != nil && e.fresh(sources) {
		return e.text, e.key, nil, true
	}
	rec := &recordingSource{src: sources, deps: make(map[string]string)}
	pp := newPreprocessor(rec, opts, ic)
	text, err := pp.Expand(cf)
	if err != nil {
		delete(fc.expansions, cf)
		return "", [sha256.Size]byte{}, nil, false
	}
	e := &expansion{text: text, key: parseCacheKey(cf, text), deps: rec.deps}
	fc.expansions[cf] = e
	return text, e.key, pp.Segments(), true
}

// build compiles one fragment: the shared parse step (parse cache, disk
// tier, lex, parse), single-file type-check, lower, promote, hash. Any
// diagnostic fails the fragment path.
func (fc *FragmentCompiler) build(cf, text string, segs []cpp.Segment, key [sha256.Size]byte, opts Options, ic *includeCache) (*fragment, bool) {
	file := parseUnit(cf, text, segs, key, opts, ic).file
	if file == nil {
		return nil, false
	}
	prog, err := csema.Analyze([]*cast.File{file})
	if err != nil {
		return nil, false
	}
	res := irgen.Build(fc.name, prog)
	if len(res.Errors) > 0 {
		return nil, false
	}
	irgen.Promote(res.Module)
	frag := &fragment{key: key, res: res, structs: prog.Structs}
	if fc.hashFn != nil {
		frag.bodyHashes = make(map[string]uint64)
		for _, fn := range res.Module.Funcs {
			if !fn.IsDecl {
				frag.bodyHashes[fn.Name] = fc.hashFn(fn, res.AssertVars)
			}
		}
	}
	return frag, true
}

// slot names the declaration that owns one symbol of a linked module:
// the owning fragment's position in the link and the declaration's index
// in that fragment's Module.Globals or Module.Funcs.
type slot struct{ frag, idx int }

// linkTable is the outcome of a link's merge: which declaration owns each
// global and function slot of the linked module, in module order, and
// whether the link gates passed. It is a pure function of the ordered
// fragments' declaration shapes (sameShape), so it describes any
// fragment list whose shapes match the ones it was built from, position
// by position.
type linkTable struct {
	from    []*fragment // the fragments of the last link that used the table
	globals []slot
	funcs   []slot
	ok      bool
}

// newLinkTable merges the fragments' declarations in first-appearance
// order, mirroring the whole-module type checker's declaration-order
// semantics, and applies the link gates. A failed gate leaves ok false:
// the fragment path cannot represent the input.
func newLinkTable(frags []*fragment) *linkTable {
	t := &linkTable{from: append([]*fragment(nil), frags...)}
	// Struct layouts must agree across fragments: the whole-module check
	// would have merged (or rejected) them, and the analysis depends on
	// field offsets and sizes baked in during per-fragment lowering.
	structs := make(map[string]*ctypes.Struct)
	for _, f := range frags {
		for tag, st := range f.structs {
			if prev, ok := structs[tag]; !ok {
				structs[tag] = st
			} else if !sameType(prev, st) {
				return t
			}
		}
	}

	// Units share their headers' declarations, so the largest fragment
	// sizes the symbol tables better than the sum over fragments does.
	nFuncs, nGlobals := 0, 0
	for _, f := range frags {
		nFuncs = max(nFuncs, len(f.res.Module.Funcs))
		nGlobals = max(nGlobals, len(f.res.Module.Globals))
	}
	// Each slot keeps the type of its first declaration; later
	// declarations must match it.
	var (
		fnSlot = make(map[string]int, nFuncs)
		fnSigs = make([]ctypes.Type, 0, nFuncs)
		gSlot  = make(map[string]int, nGlobals)
		gTypes = make([]ctypes.Type, 0, nGlobals)
	)
	t.funcs = make([]slot, 0, nFuncs)
	t.globals = make([]slot, 0, nGlobals)
	for fi, f := range frags {
		for j, g := range f.res.Module.Globals {
			i, seen := gSlot[g.Name]
			if !seen {
				gSlot[g.Name] = len(t.globals)
				t.globals = append(t.globals, slot{fi, j})
				gTypes = append(gTypes, g.Elem)
				continue
			}
			if !sameType(gTypes[i], g.Elem) {
				return t
			}
			if g.HasInit {
				if t.global(frags, i).HasInit {
					return t // conflicting initializers
				}
				t.globals[i] = slot{fi, j} // the initializing declaration wins the slot
			}
		}
		for j, fn := range f.res.Module.Funcs {
			i, seen := fnSlot[fn.Name]
			if !seen {
				fnSlot[fn.Name] = len(t.funcs)
				t.funcs = append(t.funcs, slot{fi, j})
				fnSigs = append(fnSigs, fn.Sig)
				continue
			}
			if !sameType(fnSigs[i], fn.Sig) {
				return t
			}
			if !fn.IsDecl {
				if !t.fn(frags, i).IsDecl {
					return t // duplicate definition
				}
				t.funcs[i] = slot{fi, j} // the definition wins the slot
			}
		}
	}
	t.ok = true
	return t
}

func (t *linkTable) global(frags []*fragment, i int) *ir.Global {
	s := t.globals[i]
	return frags[s.frag].res.Module.Globals[s.idx]
}

func (t *linkTable) fn(frags []*fragment, i int) *ir.Function {
	s := t.funcs[i]
	return frags[s.frag].res.Module.Funcs[s.idx]
}

// holds reports whether frags is exactly the table's last link input —
// the same fragment objects in the same order. nil-safe.
func (t *linkTable) holds(frags []*fragment) bool {
	return t != nil && slices.Equal(t.from, frags)
}

// fits reports whether the table describes frags: at every position the
// same fragment, or one of the same shape. A fitting table adopts frags
// as its own, so it keeps no replaced fragment alive. nil-safe.
func (t *linkTable) fits(frags []*fragment) bool {
	if t == nil || len(t.from) != len(frags) {
		return false
	}
	for i, f := range frags {
		if t.from[i] != f && !sameShape(t.from[i], f) {
			return false
		}
	}
	copy(t.from, frags)
	return true
}

// link builds the module the table describes over frags (ok tables
// only): each slot's owning declaration in slot order, with every
// operand rewired onto the canonical objects.
func (t *linkTable) link(name string, frags []*fragment) (*irgen.Result, map[string]uint64) {
	m := ir.NewModule(name)
	for i := range t.globals {
		m.AddGlobal(t.global(frags, i))
	}
	for i := range t.funcs {
		m.AddFunc(t.fn(frags, i))
	}
	repl := func(v ir.Value) ir.Value {
		switch x := v.(type) {
		case *ir.Function:
			if c := m.FuncByName(x.Name); c != nil && c != x {
				return c
			}
		case *ir.Global:
			if c := m.GlobalByName(x.Name); c != nil && c != x {
				return c
			}
		}
		return nil
	}
	// Rewire every function on every link: a reused fragment's operands
	// still point at the previous link's canonical objects. (Rewiring
	// only the fragments that point at a replaced object was tried: it
	// took about 0.35 ms off the link of a split 130-unit system, and
	// the phases after it took as much longer, so no update got faster.)
	for _, fn := range m.Funcs {
		if !fn.IsDecl {
			ir.RewriteOperands(fn, repl)
		}
	}

	nAsserts := 0
	for _, f := range frags {
		nAsserts += len(f.res.AssertVars)
	}
	merged := &irgen.Result{Module: m, AssertVars: make(map[*ir.Call]string, nAsserts)}
	bodyHashes := make(map[string]uint64, len(m.Funcs))
	for _, f := range frags {
		for c, v := range f.res.AssertVars {
			merged.AssertVars[c] = v
		}
		for name, h := range f.bodyHashes {
			bodyHashes[name] = h
		}
	}
	return merged, bodyHashes
}

// sameType reports whether two types are structurally identical.
// ctypes structs are nominal (pointer equality), but fragments re-create
// identical struct types per unit, so cross-fragment comparisons must be
// structural: structs match by keyword, tag and fields (name, offset,
// type). A struct met again inside its own expansion matches by keyword
// and tag alone (the cycle cut), and only one met again at the same
// point on the other side.
func sameType(a, b ctypes.Type) bool { return sameTypeIn(a, b, nil, nil) }

// sameTypeIn compares a and b below the structs pa and pb being expanded.
func sameTypeIn(a, b ctypes.Type, pa, pb []*ctypes.Struct) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case *ctypes.Basic:
		y, ok := b.(*ctypes.Basic)
		return ok && x.Kind == y.Kind
	case *ctypes.Pointer:
		y, ok := b.(*ctypes.Pointer)
		return ok && sameTypeIn(x.Elem, y.Elem, pa, pb)
	case *ctypes.Array:
		y, ok := b.(*ctypes.Array)
		return ok && x.Len == y.Len && sameTypeIn(x.Elem, y.Elem, pa, pb)
	case *ctypes.Struct:
		y, ok := b.(*ctypes.Struct)
		if !ok || x.IsUnion != y.IsUnion || x.Tag != y.Tag {
			return false
		}
		inA, inB := slices.Contains(pa, x), slices.Contains(pb, y)
		if inA || inB {
			return inA == inB
		}
		if len(x.Fields) != len(y.Fields) {
			return false
		}
		pa, pb = append(pa, x), append(pb, y)
		for i, f := range x.Fields {
			g := y.Fields[i]
			if f.Name != g.Name || f.Offset != g.Offset || !sameTypeIn(f.Type, g.Type, pa, pb) {
				return false
			}
		}
		return true
	case *ctypes.Func:
		y, ok := b.(*ctypes.Func)
		if !ok || x.Variadic != y.Variadic || len(x.Params) != len(y.Params) {
			return false
		}
		for i, p := range x.Params {
			if !sameTypeIn(p, y.Params[i], pa, pb) {
				return false
			}
		}
		return sameTypeIn(x.Result, y.Result, pa, pb)
	default:
		panic(fmt.Sprintf("frontend: sameType of unknown type %T", a))
	}
}
