// Taint domain for SafeFlow's phase 3: values carry the set of unsafe
// sources they depend on, each tagged with the strength of the dependency
// (data flow vs control flow only), plus symbolic dependencies on function
// parameters for the ESP-style summaries.
//
// The domain is dense: every *Source is interned with a per-run integer id
// at discovery time, so a Taint is four small bitsets rather than two
// pointer-keyed maps. Taints are immutable values — join, weaken and copy
// never write through a shared slice — which makes the solver hot path
// allocation-free in the common ≤64-source / ≤64-parameter case and lets
// taints flow between goroutines without cloning.

package vfg

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"safeflow/internal/ctoken"
	"safeflow/internal/shmflow"
)

// Kind grades a dependency. Data dominates Ctrl: if critical data depends
// on a source through any data-flow path it is a true error dependency;
// control-only dependencies are the paper's false-positive class that
// needs manual inspection (§3.4.1).
type Kind uint8

// Dependency kinds, weakest first.
const (
	KindNone Kind = iota
	KindCtrl
	KindData
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCtrl:
		return "control"
	case KindData:
		return "data"
	default:
		return "none"
	}
}

func maxKind(a, b Kind) Kind {
	if a > b {
		return a
	}
	return b
}

// SourceKind classifies unsafe-value sources.
type SourceKind int

// Source kinds.
const (
	SrcUnmonitoredRead SourceKind = iota + 1 // shared-memory read outside core assumptions
	SrcNonCoreRecv                           // message received on a noncore socket (§3.4.3)
	SrcSkippedDef                            // call into a function whose defining unit was skipped
	SrcPolicy                                // value produced by a configured policy source rule
)

// Source is one unsafe-value origin — each corresponds to a SafeFlow
// warning ("unmonitored non-core value access").
type Source struct {
	Kind   SourceKind
	Pos    ctoken.Pos
	FnName string
	Region *shmflow.Region // nil for SrcNonCoreRecv
	Detail string
	// Rule is the id of the policy rule this source belongs to — one of
	// the engine rule ids (policy.RuleShmRead and friends) for the
	// built-in kinds, or a configured source rule's id for SrcPolicy.
	Rule string
	// Contexts records the monitored-assumption contexts in which the read
	// is unmonitored (informational).
	Contexts map[string]bool

	// id is the dense per-run interning index (position in the analysis's
	// srcList); taints reference sources by this id, not by pointer.
	id int
}

// String implements fmt.Stringer.
func (s *Source) String() string {
	switch s.Kind {
	case SrcNonCoreRecv:
		return fmt.Sprintf("%s: %s: unmonitored non-core message data (%s)", s.Pos, s.FnName, s.Detail)
	case SrcSkippedDef:
		return fmt.Sprintf("%s: %s: call into %s whose defining unit was skipped (conservative unknown taint)",
			s.Pos, s.FnName, s.Detail)
	case SrcPolicy:
		return fmt.Sprintf("%s: %s: tainted value from %s (policy rule %s)", s.Pos, s.FnName, s.Detail, s.Rule)
	default:
		return fmt.Sprintf("%s: %s: unmonitored read of non-core shared memory %s%s",
			s.Pos, s.FnName, s.Region.Name, s.Detail)
	}
}

// ---------------------------------------------------------------------------
// Bitsets

// wordset is a small sparse bitset: word 0 (ids 0..63) is stored inline,
// higher words spill to a slice. Wordsets are immutable values — every
// operation returns a (possibly input-sharing) new set and never writes
// through hi — and the hi slice is normalized (no trailing zero words), so
// structural equality is set equality.
type wordset struct {
	lo uint64
	hi []uint64 // bit i of hi[j] is member 64*(j+1)+i
}

func (w wordset) isEmpty() bool { return w.lo == 0 && len(w.hi) == 0 }

func (w wordset) has(i int) bool {
	if i < 64 {
		return w.lo&(1<<uint(i)) != 0
	}
	j := i/64 - 1
	return j < len(w.hi) && w.hi[j]&(1<<uint(i&63)) != 0
}

func (w wordset) count() int {
	n := bits.OnesCount64(w.lo)
	for _, h := range w.hi {
		n += bits.OnesCount64(h)
	}
	return n
}

// withBit returns w ∪ {i}: w itself when the bit is already set, and
// without allocating whenever i < 64.
func (w wordset) withBit(i int) wordset {
	if i < 64 {
		w.lo |= 1 << uint(i)
		return w
	}
	j := i/64 - 1
	bit := uint64(1) << uint(i&63)
	if j < len(w.hi) && w.hi[j]&bit != 0 {
		return w
	}
	n := len(w.hi)
	if j+1 > n {
		n = j + 1
	}
	hi := make([]uint64, n)
	copy(hi, w.hi)
	hi[j] |= bit
	return wordset{lo: w.lo, hi: hi}
}

// subsetOf reports w ⊆ o.
func (w wordset) subsetOf(o wordset) bool {
	if w.lo&^o.lo != 0 || len(w.hi) > len(o.hi) {
		return false
	}
	for j, h := range w.hi {
		if h&^o.hi[j] != 0 {
			return false
		}
	}
	return true
}

// wsUnion returns a ∪ b, sharing an input when one contains the other (the
// common fixpoint case, which keeps repeated joins allocation-free).
func wsUnion(a, b wordset) wordset {
	if b.subsetOf(a) {
		return a
	}
	if a.subsetOf(b) {
		return b
	}
	lo := a.lo | b.lo
	if len(a.hi) == 0 && len(b.hi) == 0 {
		return wordset{lo: lo}
	}
	n := len(a.hi)
	if len(b.hi) > n {
		n = len(b.hi)
	}
	hi := make([]uint64, n)
	copy(hi, a.hi)
	for j, h := range b.hi {
		hi[j] |= h
	}
	return wordset{lo: lo, hi: hi}
}

// wsDiff returns a \ b, sharing a when the sets are disjoint.
func wsDiff(a, b wordset) wordset {
	m := len(a.hi)
	if len(b.hi) < m {
		m = len(b.hi)
	}
	overlap := a.lo&b.lo != 0
	for j := 0; j < m && !overlap; j++ {
		overlap = a.hi[j]&b.hi[j] != 0
	}
	if !overlap {
		return a
	}
	lo := a.lo &^ b.lo
	if len(a.hi) == 0 {
		return wordset{lo: lo}
	}
	hi := make([]uint64, len(a.hi))
	copy(hi, a.hi)
	for j := 0; j < m; j++ {
		hi[j] &^= b.hi[j]
	}
	for len(hi) > 0 && hi[len(hi)-1] == 0 {
		hi = hi[:len(hi)-1]
	}
	if len(hi) == 0 {
		hi = nil
	}
	return wordset{lo: lo, hi: hi}
}

func wsEqual(a, b wordset) bool {
	if a.lo != b.lo || len(a.hi) != len(b.hi) {
		return false
	}
	for j, h := range a.hi {
		if h != b.hi[j] {
			return false
		}
	}
	return true
}

// forEach calls f for each member, in ascending order.
func (w wordset) forEach(f func(i int)) {
	for b := w.lo; b != 0; b &= b - 1 {
		f(bits.TrailingZeros64(b))
	}
	for j, word := range w.hi {
		base := 64 * (j + 1)
		for b := word; b != 0; b &= b - 1 {
			f(base + bits.TrailingZeros64(b))
		}
	}
}

// kindSet grades a set of small-integer members (source ids or parameter
// indices) with a dependency Kind: data holds the members with a KindData
// dependency, ctrl the control-only ones. The sets are kept disjoint
// (Data dominates), which makes the representation canonical and the join
// two unions plus one subtraction.
type kindSet struct {
	data wordset
	ctrl wordset
}

func (k kindSet) isEmpty() bool { return k.data.isEmpty() && k.ctrl.isEmpty() }
func (k kindSet) count() int    { return k.data.count() + k.ctrl.count() }

func (k kindSet) kindOf(i int) Kind {
	if k.data.has(i) {
		return KindData
	}
	if k.ctrl.has(i) {
		return KindCtrl
	}
	return KindNone
}

// with returns the set with member i raised to at least kd.
func (k kindSet) with(i int, kd Kind) kindSet {
	switch {
	case kd == KindData:
		k.data = k.data.withBit(i)
		if k.ctrl.has(i) {
			k.ctrl = wsDiff(k.ctrl, wordset{}.withBit(i))
		}
	case kd == KindCtrl && !k.data.has(i):
		k.ctrl = k.ctrl.withBit(i)
	}
	return k
}

func joinKindSet(a, b kindSet) kindSet {
	data := wsUnion(a.data, b.data)
	return kindSet{data: data, ctrl: wsDiff(wsUnion(a.ctrl, b.ctrl), data)}
}

// weakenCtrl folds the data members into the control-only set.
func (k kindSet) weakenCtrl() kindSet {
	if k.data.isEmpty() {
		return k
	}
	return kindSet{ctrl: wsUnion(k.ctrl, k.data)}
}

func equalKindSet(a, b kindSet) bool {
	return wsEqual(a.data, b.data) && wsEqual(a.ctrl, b.ctrl)
}

// ---------------------------------------------------------------------------
// Taint

// Taint is the dependency fact of one SSA value: the interned unsafe
// sources it may depend on (by dense per-run id) and the parameter indices
// of the enclosing function it symbolically depends on, each graded data
// or control-only.
type Taint struct {
	src kindSet // interned *Source ids
	par kindSet // parameter indices of the enclosing function
}

// Empty reports whether the taint carries no dependencies.
func (t Taint) Empty() bool { return t.src.isEmpty() && t.par.isEmpty() }

// HasSources reports whether any concrete unsafe source is present.
func (t Taint) HasSources() bool { return !t.src.isEmpty() }

func (t Taint) hasParams() bool { return !t.par.isEmpty() }

// sourcesOnly strips the symbolic parameter dependencies (the caller-side
// view of a summary's concrete sources). Shares the source bitsets.
func (t Taint) sourcesOnly() Taint { return Taint{src: t.src} }

// sourceKind returns the dependency kind on the source with the given id.
func (t Taint) sourceKind(id int) Kind { return t.src.kindOf(id) }

// paramKind returns the dependency kind on parameter index i.
func (t Taint) paramKind(i int) Kind { return t.par.kindOf(i) }

// addSource merges one source dependency (by interned id).
func (t *Taint) addSource(id int, k Kind) {
	if k != KindNone {
		t.src = t.src.with(id, k)
	}
}

// addParam merges one parameter dependency.
func (t *Taint) addParam(i int, k Kind) {
	if k != KindNone {
		t.par = t.par.with(i, k)
	}
}

// joinTaint returns the pointwise maximum of a and b.
func joinTaint(a, b Taint) Taint {
	if b.Empty() {
		return a
	}
	if a.Empty() {
		return b
	}
	return Taint{src: joinKindSet(a.src, b.src), par: joinKindSet(a.par, b.par)}
}

// weaken caps every dependency kind at limit (used when flow passes
// through a control edge or a control-graded summary edge).
func (t Taint) weaken(limit Kind) Taint {
	if limit >= KindData {
		return t
	}
	if limit == KindNone {
		return Taint{}
	}
	return Taint{src: t.src.weakenCtrl(), par: t.par.weakenCtrl()}
}

func equalTaint(a, b Taint) bool {
	return equalKindSet(a.src, b.src) && equalKindSet(a.par, b.par)
}

// taintLattice adapts Taint to the dataflow solver.
type taintLattice struct{}

func (taintLattice) Join(a, b Taint) Taint { return joinTaint(a, b) }
func (taintLattice) Equal(a, b Taint) bool { return equalTaint(a, b) }
func (taintLattice) Bottom() Taint         { return Taint{} }

// paramsKey renders a canonical string key for a parameter kindSet (the
// word representation is canonical: disjoint sets, trimmed hi slices).
func paramsKey(p kindSet) string {
	var sb strings.Builder
	writeWords := func(w wordset) {
		fmt.Fprintf(&sb, "%x", w.lo)
		for _, h := range w.hi {
			fmt.Fprintf(&sb, ",%x", h)
		}
	}
	sb.WriteString("d=")
	writeWords(p.data)
	sb.WriteString(";c=")
	writeWords(p.ctrl)
	return sb.String()
}

// paramsToMap expands a parameter kindSet to the map form used by the
// portable (pointer-free) state.
func paramsToMap(p kindSet) map[int]Kind {
	if p.isEmpty() {
		return nil
	}
	out := make(map[int]Kind, p.count())
	p.data.forEach(func(i int) { out[i] = KindData })
	p.ctrl.forEach(func(i int) { out[i] = KindCtrl })
	return out
}

// paramsFromMap interns a portable parameter map back into a kindSet.
func paramsFromMap(m map[int]Kind) kindSet {
	var p kindSet
	for i, k := range m {
		p = p.with(i, k)
	}
	return p
}

// ---------------------------------------------------------------------------
// Core-assumption contexts

// CoreRange is one resolved assume(core(ptr, off, size)) fact: the byte
// range [Lo, Hi) of Region may be treated as core.
type CoreRange struct {
	Region *shmflow.Region
	Lo, Hi int64
}

// String implements fmt.Stringer.
func (c CoreRange) String() string {
	return fmt.Sprintf("core(%s,[%d,%d))", c.Region.Name, c.Lo, c.Hi)
}

// Context is a canonicalized set of active core assumptions.
type Context []CoreRange

// Key returns a canonical string key for memoization.
func (c Context) Key() string {
	if len(c) == 0 {
		return ""
	}
	parts := make([]string, len(c))
	for i, r := range c {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

// with returns the context extended by extra ranges, canonicalized.
func (c Context) with(extra []CoreRange) Context {
	if len(extra) == 0 {
		return c
	}
	seen := make(map[CoreRange]bool, len(c)+len(extra))
	var out Context
	for _, r := range c {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, r := range extra {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Region.Name != out[j].Region.Name {
			return out[i].Region.Name < out[j].Region.Name
		}
		if out[i].Lo != out[j].Lo {
			return out[i].Lo < out[j].Lo
		}
		return out[i].Hi < out[j].Hi
	})
	return out
}

// covers reports whether the context marks [iv.Lo, iv.Hi+size) of region
// core. An unknown interval is covered only by a whole-region assumption.
func (c Context) covers(region *shmflow.Region, iv shmflow.Interval, size int64) bool {
	for _, r := range c {
		if r.Region != region {
			continue
		}
		if iv.Unknown {
			if r.Lo <= 0 && r.Hi >= region.Size {
				return true
			}
			continue
		}
		if r.Lo <= iv.Lo && iv.Hi+size <= r.Hi {
			return true
		}
	}
	return false
}
