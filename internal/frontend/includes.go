// Header-once front end. Every unit of a Simplex system includes the same
// shared-memory header, so preprocessing, lexing and parsing it once per
// unit repeats the same work N times. One compile therefore shares a
// cpp.Memo between its units — each header expansion is computed once
// and reused while the unit enters it in the same macro state — and
// lexes and parses each memoized expansion once, appending its
// declaration nodes by pointer to every unit that includes it.
//
// A unit with memoized segments is parsed as its pieces in order: its own
// text, a segment, its own text again, and so on. Each memoized segment
// starts with its own #line directive and the unit's text after it
// resumes with one, so the lexer state at every boundary is reset. The
// parser's only state between external declarations is its typedef-name
// set, which is threaded from piece to piece, and a segment is parsed
// once per compile for each (expansion, typedef set on entry). EOF ends
// no external declaration without an error, so pieces that each lex and
// parse cleanly end on declaration boundaries and their concatenated
// declarations equal a whole-buffer parse. Where that does not hold — a
// block comment left open across an include, an include inside a
// declaration or function body, an annotation just before an include, a
// lex or parse error anywhere — some piece fails, and the unit is lexed
// and parsed whole, exactly as without the memo, which keeps its
// diagnostics and its partial recovery AST.
//
// Sharing the parsed nodes is sound:
//   - Nothing below cparse reads a declaration's storage class, so csema
//     and irgen already merge file-scope entities by name; a shared node
//     names the same entity a per-unit copy would.
//   - The node-keyed side tables (csema's Uses and ExprTypes, irgen's
//     declObjs) get the same value for a shared node on every visit: the
//     value depends only on the node and the merged program state, and
//     csema checks a shared function body once per program.
//   - The AST is a pure tree that no pass mutates (see cast/codec.go);
//     csema caps a prototype's annotation slice, so appending to a
//     function's annotations copies it.
//   - Fragments (incr.go) type-check one file each, into their own
//     csema.Program, so their tables never mix.
//
// csema.AnalyzeUnits collects a repeated header declaration once when
// collecting it again would change nothing (see its doc comment).

package frontend

import (
	"sort"
	"strings"
	"sync"

	"safeflow/internal/cast"
	"safeflow/internal/clex"
	"safeflow/internal/cparse"
	"safeflow/internal/cpp"
	"safeflow/internal/metrics"
)

// includeCache is one compile's shared header state. It must not outlive
// the compile.
type includeCache struct {
	memo *cpp.Memo
	mu   sync.Mutex
	segs map[segmentKey]*segmentParse
}

// segmentKey names one parse of a memoized expansion: the expansion and
// the typedef names in scope where the unit enters it, sorted and joined
// ("" for none).
type segmentKey struct {
	exp      *cpp.Expansion
	typedefs string
}

// segmentParse is one memoized expansion, lexed and parsed once.
type segmentParse struct {
	once     sync.Once
	decls    []cast.Decl
	typedefs map[string]bool // typedef names in scope after the segment
	ok       bool            // lexed and parsed without errors
}

func newIncludeCache() *includeCache {
	return &includeCache{memo: cpp.NewMemo(), segs: make(map[segmentKey]*segmentParse)}
}

// report adds the compile's include-memo counts to the run metrics.
func (ic *includeCache) report(col *metrics.Collector) {
	col.AddIncludeMemo(ic.memo.Stats())
}

// newPreprocessor returns a preprocessor for one unit of the compile,
// with the -D defines applied in sorted order.
func newPreprocessor(sources cpp.Source, opts Options, ic *includeCache) *cpp.Preprocessor {
	pp := cpp.New(sources)
	pp.UseMemo(ic.memo)
	keys := make([]string, 0, len(opts.Defines))
	for k := range opts.Defines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pp.Define(k, opts.Defines[k])
	}
	return pp
}

// segment returns exp parsed from the typedef names typedefs, lexing and
// parsing it on first use.
func (ic *includeCache) segment(exp *cpp.Expansion, typedefs map[string]bool) *segmentParse {
	key := segmentKey{exp: exp}
	if len(typedefs) > 0 {
		names := make([]string, 0, len(typedefs))
		for n := range typedefs {
			names = append(names, n)
		}
		sort.Strings(names)
		key.typedefs = strings.Join(names, " ")
	}
	ic.mu.Lock()
	sp := ic.segs[key]
	if sp == nil {
		sp = &segmentParse{}
		ic.segs[key] = sp
	}
	ic.mu.Unlock()
	sp.once.Do(func() {
		sp.decls, sp.typedefs, sp.ok = parsePiece(exp.Name, exp.Text, typedefs)
	})
	return sp
}

// parsePiece lexes and parses one piece of a unit from the typedef names
// typedefs; ok reports that it did so without errors.
func parsePiece(name, text string, typedefs map[string]bool) (decls []cast.Decl, exit map[string]bool, ok bool) {
	lx := clex.New(name, text)
	toks := lx.All()
	if len(lx.Errors()) > 0 {
		return nil, nil, false
	}
	decls, exit, errs := cparse.ParseDecls(toks, typedefs)
	return decls, exit, len(errs) == 0
}

// parsePieces parses a unit with memoized segments piecewise: its own
// text is lexed and parsed here, each segment comes parsed from the
// compile's cache. ok=false means the unit has no segments or some piece
// failed, and the unit must be parsed whole.
func (ic *includeCache) parsePieces(cf, text string, segs []cpp.Segment) (f *cast.File, ok bool) {
	if len(segs) == 0 {
		return nil, false
	}
	var (
		decls    []cast.Decl
		typedefs map[string]bool
	)
	own := func(s string) bool {
		if s == "" {
			return true
		}
		ds, exit, ok := parsePiece(cf, s, typedefs)
		decls, typedefs = append(decls, ds...), exit
		return ok
	}
	pos := 0
	for _, sg := range segs {
		if !own(text[pos:sg.Start]) {
			return nil, false
		}
		sp := ic.segment(sg.Exp, typedefs)
		if !sp.ok {
			return nil, false
		}
		decls, typedefs = append(decls, sp.decls...), sp.typedefs
		pos = sg.End
	}
	if !own(text[pos:]) {
		return nil, false
	}
	return &cast.File{Name: cf, Decls: decls}, true
}
