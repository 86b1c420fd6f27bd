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
// order so downstream reports stay byte-identical.
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
	"strings"

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
// content hashes of the functions it defines and the structural
// fingerprints of its declarations. Both are computed once when the
// fragment is built, so a reused fragment's hints are intrinsically
// consistent with its IR and linking it again costs string compares.
type fragment struct {
	key        [sha256.Size]byte
	res        *irgen.Result
	bodyHashes map[string]uint64
	structFPs  map[string]string // struct tag → layout fingerprint
	globalFPs  []string          // element-type fingerprints, aligned with res.Module.Globals
	funcFPs    []string          // signature fingerprints, aligned with res.Module.Funcs
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
	// The previous link, returned verbatim when the fragment list is
	// unchanged (pointer-for-pointer, in order) — the comment-only-edit
	// case, where rebuilt fragments were adopted back into their
	// semantically identical predecessors.
	lastFrags  []*fragment
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

// expansion caches one unit's preprocessed text together with the exact
// files the preprocessor read to produce it. The cache is fresh while
// every dependency's current content is unchanged — unchanged files in
// a session keep their identical string values, so the comparison hits
// the pointer-equality fast path.
type expansion struct {
	text string
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
		text, segs, ok := fc.expand(sources, cf, opts, ic)
		if !ok {
			return nil, nil, false
		}
		key := parseCacheKey(cf, text)
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
	if fc.sameLink(frags) {
		return fc.lastRes, fc.lastHashes, true
	}
	res, hashes, ok := fc.link(frags)
	if ok {
		fc.lastFrags = append(fc.lastFrags[:0], frags...)
		fc.lastRes, fc.lastHashes = res, hashes
	} else {
		fc.lastFrags, fc.lastRes, fc.lastHashes = nil, nil, nil
	}
	return res, hashes, ok
}

// sameLink reports whether frags is exactly the previous link's input —
// same fragment objects in the same order — so its output is reusable.
func (fc *FragmentCompiler) sameLink(frags []*fragment) bool {
	if fc.lastRes == nil || len(frags) != len(fc.lastFrags) {
		return false
	}
	for i, f := range frags {
		if fc.lastFrags[i] != f {
			return false
		}
	}
	return true
}

// sameFragment reports whether two compiles of one unit are semantically
// interchangeable: identical symbol lists (names, order, kind), identical
// signature and layout fingerprints, and identical body hashes — which
// cover instruction positions, assert variables, and annotation facts,
// so adopted IR renders byte-identical reports.
func (fc *FragmentCompiler) sameFragment(a, b *fragment) bool {
	if fc.hashFn == nil {
		return false // without body hashes there is no semantic signal
	}
	am, bm := a.res.Module, b.res.Module
	if len(am.Funcs) != len(bm.Funcs) || len(am.Globals) != len(bm.Globals) ||
		len(a.structFPs) != len(b.structFPs) || len(a.bodyHashes) != len(b.bodyHashes) {
		return false
	}
	// Definitions must match pairwise in order; declarations are compared
	// as a set — csema emits builtin declarations in nondeterministic
	// order, and declaration order is already proven not to affect report
	// bytes (the whole-module pipeline has the same nondeterminism and
	// passes byte-determinism).
	decls := make(map[string]int)
	var aDefs []int
	for i, fn := range am.Funcs {
		if fn.IsDecl {
			decls[fn.Name] = i
		} else {
			aDefs = append(aDefs, i)
		}
	}
	var bDefs []int
	for i, fn := range bm.Funcs {
		if fn.IsDecl {
			j, ok := decls[fn.Name]
			if !ok || am.Funcs[j].Pos != fn.Pos || a.funcFPs[j] != b.funcFPs[i] {
				return false
			}
			delete(decls, fn.Name)
		} else {
			bDefs = append(bDefs, i)
		}
	}
	if len(decls) != 0 || len(aDefs) != len(bDefs) {
		return false
	}
	for k, i := range aDefs {
		j := bDefs[k]
		fn, o := am.Funcs[i], bm.Funcs[j]
		if fn.Name != o.Name || fn.Pos != o.Pos || a.funcFPs[i] != b.funcFPs[j] {
			return false
		}
	}
	for i, g := range am.Globals {
		o := bm.Globals[i]
		if g.Name != o.Name || g.HasInit != o.HasInit || g.Pos != o.Pos ||
			len(g.InitInts) != len(o.InitInts) || a.globalFPs[i] != b.globalFPs[i] {
			return false
		}
		for j, v := range g.InitInts {
			if o.InitInts[j] != v {
				return false
			}
		}
	}
	for tag, fp := range a.structFPs {
		if ofp, ok := b.structFPs[tag]; !ok || fp != ofp {
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

// expand preprocesses one unit exactly as compileUnitDiags does,
// skipping the preprocessor entirely while the unit's recorded include
// closure is unchanged (and then returning no segments).
func (fc *FragmentCompiler) expand(sources cpp.Source, cf string, opts Options, ic *includeCache) (string, []cpp.Segment, bool) {
	if e := fc.expansions[cf]; e != nil && e.fresh(sources) {
		return e.text, nil, true
	}
	rec := &recordingSource{src: sources, deps: make(map[string]string)}
	pp := newPreprocessor(rec, opts, ic)
	text, err := pp.Expand(cf)
	if err != nil {
		delete(fc.expansions, cf)
		return "", nil, false
	}
	fc.expansions[cf] = &expansion{text: text, deps: rec.deps}
	return text, pp.Segments(), true
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
	frag := &fragment{
		key:       key,
		res:       res,
		structFPs: make(map[string]string, len(prog.Structs)),
		globalFPs: make([]string, len(res.Module.Globals)),
		funcFPs:   make([]string, len(res.Module.Funcs)),
	}
	for tag, st := range prog.Structs {
		frag.structFPs[tag] = typeFP(st, nil)
	}
	for i, g := range res.Module.Globals {
		frag.globalFPs[i] = typeFP(g.Elem, nil)
	}
	for i, fn := range res.Module.Funcs {
		frag.funcFPs[i] = typeFP(fn.Sig, nil)
	}
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

// link merges the fragments into one module in first-appearance order,
// mirroring the whole-module type checker's declaration-order semantics.
func (fc *FragmentCompiler) link(frags []*fragment) (*irgen.Result, map[string]uint64, bool) {
	// Struct layouts must agree across fragments: the whole-module check
	// would have merged (or rejected) them, and the analysis depends on
	// field offsets and sizes baked in during per-fragment lowering.
	structFPs := make(map[string]string)
	for _, f := range frags {
		for tag, fp := range f.structFPs {
			if prev, ok := structFPs[tag]; ok && prev != fp {
				return nil, nil, false
			}
			structFPs[tag] = fp
		}
	}

	// Units share their headers' declarations, so the largest fragment
	// sizes the symbol tables better than the sum over fragments does.
	nFuncs, nGlobals, nAsserts := 0, 0, 0
	for _, f := range frags {
		nFuncs = max(nFuncs, len(f.res.Module.Funcs))
		nGlobals = max(nGlobals, len(f.res.Module.Globals))
		nAsserts += len(f.res.AssertVars)
	}
	// Each slot keeps the fingerprint of its first declaration; later
	// declarations must match it.
	var (
		fnSlot  = make(map[string]int, nFuncs)
		fnOrder = make([]*ir.Function, 0, nFuncs)
		fnFPs   = make([]string, 0, nFuncs)
		gSlot   = make(map[string]int, nGlobals)
		gOrder  = make([]*ir.Global, 0, nGlobals)
		gFPs    = make([]string, 0, nGlobals)
	)
	for _, f := range frags {
		for j, g := range f.res.Module.Globals {
			i, seen := gSlot[g.Name]
			if !seen {
				gSlot[g.Name] = len(gOrder)
				gOrder = append(gOrder, g)
				gFPs = append(gFPs, f.globalFPs[j])
				continue
			}
			if gFPs[i] != f.globalFPs[j] {
				return nil, nil, false
			}
			if g.HasInit {
				if gOrder[i].HasInit {
					return nil, nil, false // conflicting initializers
				}
				gOrder[i] = g // the initializing declaration wins the slot
			}
		}
		for j, fn := range f.res.Module.Funcs {
			i, seen := fnSlot[fn.Name]
			if !seen {
				fnSlot[fn.Name] = len(fnOrder)
				fnOrder = append(fnOrder, fn)
				fnFPs = append(fnFPs, f.funcFPs[j])
				continue
			}
			if fnFPs[i] != f.funcFPs[j] {
				return nil, nil, false
			}
			if !fn.IsDecl {
				if !fnOrder[i].IsDecl {
					return nil, nil, false // duplicate definition
				}
				fnOrder[i] = fn // the definition wins the slot
			}
		}
	}

	m := ir.NewModule(fc.name)
	for _, g := range gOrder {
		m.AddGlobal(g)
	}
	for _, fn := range fnOrder {
		m.AddFunc(fn)
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
	// still point at the previous link's canonical objects.
	for _, fn := range fnOrder {
		if !fn.IsDecl {
			ir.RewriteOperands(fn, repl)
		}
	}

	merged := &irgen.Result{Module: m, AssertVars: make(map[*ir.Call]string, nAsserts)}
	bodyHashes := make(map[string]uint64, len(fnOrder))
	for _, f := range frags {
		for c, v := range f.res.AssertVars {
			merged.AssertVars[c] = v
		}
		for name, h := range f.bodyHashes {
			bodyHashes[name] = h
		}
	}
	return merged, bodyHashes, true
}

// typeFP renders a type to a structural fingerprint. ctypes structs are
// nominal (pointer equality), but fragments re-create identical struct
// types per TU, so cross-fragment comparisons must be structural. A
// struct already being expanded renders as its tag (cycle cut).
func typeFP(t ctypes.Type, expanding map[*ctypes.Struct]bool) string {
	switch x := t.(type) {
	case nil:
		return "<nil>"
	case *ctypes.Basic:
		return x.String()
	case *ctypes.Pointer:
		return "*" + typeFP(x.Elem, expanding)
	case *ctypes.Array:
		return fmt.Sprintf("[%d]%s", x.Len, typeFP(x.Elem, expanding))
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
		b.WriteString(kw)
		b.WriteByte(' ')
		b.WriteString(x.Tag)
		b.WriteByte('{')
		for _, fld := range x.Fields {
			fmt.Fprintf(&b, "%s@%d:%s;", fld.Name, fld.Offset, typeFP(fld.Type, expanding))
		}
		b.WriteByte('}')
		delete(expanding, x)
		return b.String()
	case *ctypes.Func:
		var b strings.Builder
		b.WriteString("func(")
		for _, p := range x.Params {
			b.WriteString(typeFP(p, expanding))
			b.WriteByte(',')
		}
		if x.Variadic {
			b.WriteString("...")
		}
		b.WriteByte(')')
		b.WriteString(typeFP(x.Result, expanding))
		return b.String()
	default:
		return fmt.Sprintf("%T", t)
	}
}
