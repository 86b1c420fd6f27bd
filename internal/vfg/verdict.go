// Stored verdicts. A converged run's findings — its warnings with their
// contexts and its error dependencies with their sources and kinds — do
// not change while the module, shm facts, points-to result and options
// they were computed from stay the same. A Verdict keeps them in the
// portable forms of portable.go (region names, no IR, region or
// points-to pointer), so it keeps no module alive, and Bind turns it back
// into a Result against a later run's regions without running the
// analysis. Whoever stores a Verdict owns the proof that the later run
// analyzes the same inputs: Bind checks only that every region name still
// resolves.

package vfg

import (
	"sort"

	"safeflow/internal/ctoken"
	"safeflow/internal/shmflow"
)

// Verdict is the portable form of a converged run's findings. It is
// read-only once made, so any number of runs may bind it at once.
type Verdict struct {
	warnings []pWarning
	errors   []pError
	// sccs and units are the run's structural counts: its call graph's
	// SCCs and the (function, context) units its closure held.
	sccs, units int
}

// pWarning is one warning: its source and the sorted keys of the
// contexts in which the read was unmonitored.
type pWarning struct {
	src      pSrc
	contexts []string
}

// NewVerdict exports res's findings. res must come from a run that was
// neither cancelled nor faulted.
func NewVerdict(res *Result) *Verdict {
	v := &Verdict{
		warnings: make([]pWarning, len(res.Warnings)),
		errors:   make([]pError, len(res.Errors)),
		sccs:     res.SCCs,
		units:    res.Units,
	}
	for i, s := range res.Warnings {
		ctxs := make([]string, 0, len(s.Contexts))
		for c := range s.Contexts {
			ctxs = append(ctxs, c)
		}
		sort.Strings(ctxs)
		v.warnings[i] = pWarning{src: pSrcOf(s), contexts: ctxs}
	}
	for i, e := range res.Errors {
		srcs := make([]pSrcTaint, 0, len(e.Sources))
		for _, s := range e.SortedSources() {
			srcs = append(srcs, pSrcTaint{src: pSrcOf(s), k: e.Sources[s]})
		}
		v.errors[i] = pError{pos: e.Pos, fn: e.FnName, vbl: e.Var, rule: e.Rule, srcs: srcs}
	}
	return v
}

// pSrcOf is a source's portable form.
func pSrcOf(s *Source) pSrc {
	region := ""
	if s.Region != nil {
		region = s.Region.Name
	}
	return pSrc{key: srcKey{pos: s.Pos, kind: s.Kind, region: region, detail: s.Detail, rule: s.Rule}, fn: s.FnName}
}

// Bind rebuilds the verdict's findings as a Result whose sources point at
// sf's regions, in the order the run reported them. It reports false when
// a region name does not resolve in sf. The Result records no solve, no
// transfer and no round: nothing was analyzed.
func (v *Verdict) Bind(sf *shmflow.Result) (*Result, bool) {
	res := &Result{
		Warnings: make([]*Source, len(v.warnings)),
		Errors:   make([]*ErrorDep, len(v.errors)),
		SCCs:     v.sccs,
		Units:    v.units,
	}
	srcs := make([]Source, len(v.warnings))
	for i, w := range v.warnings {
		var region *shmflow.Region
		if w.src.key.region != "" {
			r, ok := sf.RegionByName[w.src.key.region]
			if !ok {
				return nil, false
			}
			region = r
		}
		s := &srcs[i]
		*s = Source{
			Kind:     w.src.key.kind,
			Pos:      w.src.key.pos,
			FnName:   w.src.fn,
			Region:   region,
			Detail:   w.src.key.detail,
			Rule:     w.src.key.rule,
			Contexts: make(map[string]bool, len(w.contexts)),
			id:       i,
		}
		for _, c := range w.contexts {
			s.Contexts[c] = true
		}
		res.Warnings[i] = s
	}
	for i, pe := range v.errors {
		e := &ErrorDep{Pos: pe.pos, FnName: pe.fn, Var: pe.vbl, Rule: pe.rule, Sources: make(map[*Source]Kind, len(pe.srcs))}
		strongest := KindNone
		for _, st := range pe.srcs {
			s := v.warning(res.Warnings, st.src.key)
			if s == nil {
				return nil, false
			}
			e.Sources[s] = st.k
			strongest = maxKind(strongest, st.k)
		}
		e.ControlOnly = strongest == KindCtrl
		res.Errors[i] = e
	}
	return res, true
}

// warning finds the bound warning of key in bound, which holds the
// verdict's warnings in their order: sourceLess's, which is srcKeyLess's.
func (v *Verdict) warning(bound []*Source, key srcKey) *Source {
	i := sort.Search(len(v.warnings), func(i int) bool { return !srcKeyLess(v.warnings[i].src.key, key) })
	if i == len(v.warnings) || v.warnings[i].src.key != key {
		return nil
	}
	return bound[i]
}

// Checksum is the verdict's integrity sum: FNV-1a over its counts, every
// position, kind and source kind, and the length of every string. It
// guards against truncation and stray mutation of a shared verdict (a
// string's bytes cannot change), not against an adversary.
func (v *Verdict) Checksum() uint64 {
	h := newFNV()
	pos := func(p ctoken.Pos) {
		h.int(int64(len(p.File)))
		h.int(int64(p.Line))
		h.int(int64(p.Col))
	}
	src := func(p pSrc) {
		pos(p.key.pos)
		h.int(int64(p.key.kind))
		for _, n := range []int{len(p.key.region), len(p.key.detail), len(p.key.rule), len(p.fn)} {
			h.int(int64(n))
		}
	}
	h.int(int64(v.sccs))
	h.int(int64(v.units))
	h.int(int64(len(v.warnings)))
	for _, w := range v.warnings {
		src(w.src)
		h.int(int64(len(w.contexts)))
		for _, c := range w.contexts {
			h.int(int64(len(c)))
		}
	}
	h.int(int64(len(v.errors)))
	for _, e := range v.errors {
		pos(e.pos)
		for _, n := range []int{len(e.fn), len(e.vbl), len(e.rule), len(e.srcs)} {
			h.int(int64(n))
		}
		for _, st := range e.srcs {
			src(st.src)
			h.int(int64(st.k))
		}
	}
	return h.h
}
