// Header-once front end. Every unit of a Simplex system includes the same
// shared-memory header, so preprocessing and lexing it once per unit
// repeats the same work N times. One compile therefore shares a
// cpp.Memo between its units — each header expansion is computed once
// and reused while the unit enters it in the same macro state — and
// lexes each memoized expansion once, splicing its tokens into every
// unit that includes it.
//
// Splicing is exact: each memoized segment starts with its own #line
// directive and the unit's text after it resumes with one, so the lexer
// state at every boundary is reset, and the spliced stream equals a
// whole-buffer lex token for token. Where that argument does not hold —
// any piece with a lex error, such as a block comment left open across
// an include — the unit is lexed whole, exactly as without the memo.
// Parsed ASTs are not shared across units: csema and irgen key their
// side tables by AST node, and static header definitions are separate
// entities per unit.

package frontend

import (
	"sort"
	"sync"

	"safeflow/internal/clex"
	"safeflow/internal/cpp"
	"safeflow/internal/ctoken"
	"safeflow/internal/metrics"
)

// includeCache is one compile's shared header state. It must not outlive
// the compile.
type includeCache struct {
	memo *cpp.Memo
	mu   sync.Mutex
	toks map[*cpp.Expansion]*segmentTokens
}

// segmentTokens is one memoized expansion, lexed once.
type segmentTokens struct {
	once sync.Once
	toks []ctoken.Token // without the EOF token
	eof  ctoken.Token
	ok   bool // lexed without errors
}

func newIncludeCache() *includeCache {
	return &includeCache{memo: cpp.NewMemo(), toks: make(map[*cpp.Expansion]*segmentTokens)}
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

// segment returns exp's tokens, lexing them on first use.
func (ic *includeCache) segment(exp *cpp.Expansion) *segmentTokens {
	ic.mu.Lock()
	st := ic.toks[exp]
	if st == nil {
		st = &segmentTokens{}
		ic.toks[exp] = st
	}
	ic.mu.Unlock()
	st.once.Do(func() {
		lx := clex.New(exp.Name, exp.Text)
		all := lx.All()
		st.toks, st.eof, st.ok = all[:len(all)-1], all[len(all)-1], len(lx.Errors()) == 0
	})
	return st
}

// lex tokenizes one unit's expanded text. With memoized segments it
// splices their shared tokens between the lexed pieces of the unit's own
// text; otherwise, or when any piece fails to lex, it lexes the whole
// buffer.
func (ic *includeCache) lex(cf, text string, segs []cpp.Segment) ([]ctoken.Token, []error) {
	if len(segs) > 0 {
		if toks, ok := ic.splice(cf, text, segs); ok {
			return toks, nil
		}
	}
	lx := clex.New(cf, text)
	toks := lx.All()
	return toks, lx.Errors()
}

// splice builds the unit's token stream from its own text and its
// memoized segments. The final EOF is that of the last non-empty piece.
func (ic *includeCache) splice(cf, text string, segs []cpp.Segment) ([]ctoken.Token, bool) {
	sts := make([]*segmentTokens, len(segs))
	own := len(text)
	n := 0
	for i, sg := range segs {
		if sts[i] = ic.segment(sg.Exp); !sts[i].ok {
			return nil, false
		}
		own -= sg.End - sg.Start
		n += len(sts[i].toks)
	}
	out := make([]ctoken.Token, 0, n+own/4+1)
	var eof ctoken.Token
	ownPiece := func(s string) bool {
		if s == "" {
			return true
		}
		lx := clex.New(cf, s)
		for t := lx.Next(); ; t = lx.Next() {
			if t.Kind == ctoken.EOF {
				eof = t
				break
			}
			out = append(out, t)
		}
		return len(lx.Errors()) == 0
	}
	pos := 0
	for i, sg := range segs {
		if !ownPiece(text[pos:sg.Start]) {
			return nil, false
		}
		out = append(out, sts[i].toks...)
		eof = sts[i].eof
		pos = sg.End
	}
	if !ownPiece(text[pos:]) {
		return nil, false
	}
	return append(out, eof), true
}
