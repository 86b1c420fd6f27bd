package cpp

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Memo is an include memo shared by the preprocessors of one compile.
//
// When every translation unit of a system includes the same header, the
// header's expansion is the same bytes in every unit as long as the unit
// enters it in the same state. The memo keys an expansion by the header's
// name and content plus the entry #define set (which holds the -D
// predefines) and the entry include-guard set, and stores the expanded
// text together with the define and guard state it leaves behind.
//
// An expansion is stored only when it raised no error, so #error,
// recursion and depth diagnostics are always recomputed. A stored
// expansion is reused only when none of the files it read is on the
// current include stack and the stack leaves room for its nesting depth:
// a header that would include its includer is expanded afresh and fails
// exactly as it does without a memo. Nested files are re-read on reuse
// and must be unchanged.
//
// A Memo is safe for concurrent use by the preprocessors of one compile.
// Units that miss the same key at the same time each expand it, and the
// first expansion stored is kept. A Memo holds the compile's sources, so
// it must not outlive the compile.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*Expansion
	hits    atomic.Int64
	misses  atomic.Int64
}

// NewMemo returns an empty include memo.
func NewMemo() *Memo { return &Memo{entries: make(map[memoKey]*Expansion)} }

// Stats reports how many includes were served from the memo and how many
// were expanded.
func (m *Memo) Stats() (hits, misses int) {
	return int(m.hits.Load()), int(m.misses.Load())
}

type memoKey struct {
	name, content, state string
}

// Expansion is one memoized header expansion. Its fields beyond Name and
// Text are read-only after it is stored.
type Expansion struct {
	// Name is the header's name.
	Name string
	// Text is exactly what the header contributes to an including unit's
	// output, starting with the header's own #line directive.
	Text string

	defines map[string]string // exit #define set
	guards  map[string]bool   // exit include-guard set
	reads   []fileRead        // files read below the header, in order
	depth   int               // deepest include nesting below the header
}

type fileRead struct{ name, text string }

// Segment is a region of a unit's expanded text that a memoized include
// produced: Text[Start:End] equals Exp.Text. The text between segments
// is the unit's own.
type Segment struct {
	Start, End int
	Exp        *Expansion
}

func (m *Memo) lookup(key memoKey) *Expansion {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[key]
}

// store records exp under key unless an expansion is stored there already.
func (m *Memo) store(key memoKey, exp *Expansion) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; !ok {
		m.entries[key] = exp
	}
}

// include expands the included file name, through the memo when one is
// set.
func (p *Preprocessor) include(name, text string) {
	if p.memo == nil {
		p.processFile(name, text)
		return
	}
	start := p.out.Len()
	key := memoKey{name, text, p.stateKey()}
	if exp := p.memo.lookup(key); exp != nil && p.reusable(name, exp) {
		p.memo.hits.Add(1)
		p.out.WriteString(exp.Text)
		p.defines = maps.Clone(exp.defines)
		p.guards = maps.Clone(exp.guards)
		// An enclosing computation's depth includes this header's nesting.
		p.maxDepth = max(p.maxDepth, len(p.includes)+exp.depth)
		p.addSegment(start, exp)
		return
	}
	p.memo.misses.Add(1)
	if exp := p.expandHeader(name, text); exp != nil {
		p.memo.store(key, exp)
		p.addSegment(start, exp)
	}
}

// expandHeader expands one included file and returns the expansion, or
// nil when it raised an error.
func (p *Preprocessor) expandHeader(name, text string) *Expansion {
	nerrs, nreads, start := len(p.errs), len(p.readLog), p.out.Len()
	outerMax := p.maxDepth
	p.maxDepth = len(p.includes)
	p.computing++
	p.processFile(name, text)
	p.computing--
	depth := p.maxDepth - len(p.includes)
	p.maxDepth = max(outerMax, p.maxDepth)
	if len(p.errs) > nerrs {
		return nil
	}
	return &Expansion{
		Name:    name,
		Text:    p.out.String()[start:],
		defines: maps.Clone(p.defines),
		guards:  maps.Clone(p.guards),
		reads:   slices.Clone(p.readLog[nreads:]),
		depth:   depth,
	}
}

// reusable reports whether expanding name here would reproduce exp: no
// file it read is on the include stack, the stack has room for its
// depth, and every nested file it read still has the same content.
func (p *Preprocessor) reusable(name string, exp *Expansion) bool {
	if len(p.includes)+exp.depth >= maxIncludeDepth || p.onStack(name) {
		return false
	}
	for _, r := range exp.reads {
		if p.onStack(r.name) {
			return false
		}
		if text, err := p.read(r.name); err != nil || text != r.text {
			return false
		}
	}
	return true
}

func (p *Preprocessor) onStack(name string) bool {
	return slices.Contains(p.includes, name)
}

// addSegment records a memoized include that ends at the current output
// position, unless it is nested inside another memoized include.
func (p *Preprocessor) addSegment(start int, exp *Expansion) {
	if p.computing == 0 {
		p.segs = append(p.segs, Segment{Start: start, End: p.out.Len(), Exp: exp})
	}
}

// stateKey encodes the current #define and include-guard sets, each in
// sorted order with length-prefixed strings.
func (p *Preprocessor) stateKey() string {
	names := make([]string, 0, max(len(p.defines), len(p.guards)))
	var b []byte
	put := func(s string) {
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	for name := range p.defines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		put(name)
		put(p.defines[name])
	}
	b = append(b, '|')
	names = names[:0]
	for name := range p.guards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		put(name)
	}
	return string(b)
}

// Segments returns the memoized includes of the last Expand, in output
// order. It is empty without a memo or when the unit includes nothing.
func (p *Preprocessor) Segments() []Segment { return p.segs }
