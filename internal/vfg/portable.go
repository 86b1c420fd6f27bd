// Portable (pointer-free) forms of the summary domain. A converged run's
// state outlives the run (Session and the store of last converged states
// keep it for the next run), but summaries reference run-local pointers
// (*Source, *pointsto.Object). So a captured state holds them in a
// portable form — positions, names and byte offsets — rebound against
// the new run's points-to objects and regions on replay. A descriptor
// that does not rebind unambiguously makes its record unusable, and the
// unit is solved instead.

package vfg

import (
	"safeflow/internal/ctoken"
	"safeflow/internal/pointsto"
	"safeflow/internal/shmflow"
)

type pSrc struct {
	key srcKey // position, kind, region name, detail
	fn  string
}

type pSrcTaint struct {
	src pSrc
	k   Kind
}

type pTaint struct {
	srcs   []pSrcTaint
	params map[int]Kind
}

// objDesc names a points-to object by stable content: kind, diagnostic
// name, owning function and allocation-site position.
type objDesc struct {
	kind pointsto.ObjKind
	name string
	fn   string
	pos  ctoken.Pos
}

type pRef struct {
	obj objDesc
	off int64
}

type pEffect struct {
	ref    pRef
	params map[int]Kind
}

type pObligation struct {
	pos         ctoken.Pos
	fnName, vbl string
	rule        string
	params      map[int]Kind
}

type pSummary struct {
	ret     pTaint
	effects []pEffect
	asserts []pObligation
}

type pCell struct {
	ref   pRef
	taint pTaint
}

// ---------------------------------------------------------------------------
// Export (current run → portable)

func descOf(o *pointsto.Object) objDesc {
	d := objDesc{kind: o.Kind, name: o.Name}
	if o.Fn != nil {
		d.fn = o.Fn.Name
	}
	if o.Site != nil {
		d.pos = o.Site.Pos()
	}
	return d
}

// exportTaint resolves the taint's interned source ids through srcList
// (under srcMu) into the portable pointer-free form.
func (a *analysis) exportTaint(t Taint) pTaint {
	out := pTaint{params: paramsToMap(t.par)}
	a.srcMu.Lock()
	emit := func(id int, k Kind) {
		s := a.srcList[id]
		regionName := ""
		if s.Region != nil {
			regionName = s.Region.Name
		}
		out.srcs = append(out.srcs, pSrcTaint{
			src: pSrc{key: srcKey{pos: s.Pos, kind: s.Kind, region: regionName, detail: s.Detail, rule: s.Rule}, fn: s.FnName},
			k:   k,
		})
	}
	t.src.data.forEach(func(id int) { emit(id, KindData) })
	t.src.ctrl.forEach(func(id int) { emit(id, KindCtrl) })
	a.srcMu.Unlock()
	return out
}

func (a *analysis) exportSummary(s summary) pSummary {
	out := pSummary{ret: a.exportTaint(s.ret)}
	for _, e := range s.effects {
		out.effects = append(out.effects, pEffect{
			ref:    pRef{obj: descOf(e.ref.Obj), off: e.ref.Off},
			params: paramsToMap(e.par),
		})
	}
	for _, o := range s.asserts {
		out.asserts = append(out.asserts, pObligation{
			pos: o.pos, fnName: o.fnName, vbl: o.vbl, rule: o.rule, params: paramsToMap(o.par),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Rebinding (portable → current run)

// binder rebinds portable descriptors against the current run's points-to
// objects and regions.
type binder struct {
	a    *analysis
	objs map[objDesc]*pointsto.Object // nil value marks an ambiguous descriptor
}

func (a *analysis) newBinder() *binder {
	b := &binder{a: a, objs: make(map[objDesc]*pointsto.Object)}
	for _, o := range a.cfg.PTS.Objects() {
		d := descOf(o)
		if _, seen := b.objs[d]; seen {
			b.objs[d] = nil // ambiguous: force a miss
			continue
		}
		b.objs[d] = o
	}
	return b
}

func (b *binder) bindRef(r pRef) (pointsto.Ref, bool) {
	o, ok := b.objs[r.obj]
	if !ok || o == nil {
		return pointsto.Ref{}, false
	}
	return pointsto.Ref{Obj: o, Off: r.off}, true
}

func (b *binder) bindTaint(p pTaint) (Taint, bool) {
	t := Taint{par: paramsFromMap(p.params)}
	for _, st := range p.srcs {
		s, ok := b.a.sourceFromKey(st.src)
		if !ok {
			return Taint{}, false
		}
		t.addSource(s.id, st.k)
	}
	return t, true
}

// sourceFromKey interns a source from its portable key, resolving the
// region name against the current run's shmflow result.
func (a *analysis) sourceFromKey(p pSrc) (*Source, bool) {
	var region *shmflow.Region
	if p.key.region != "" {
		r, ok := a.cfg.SF.RegionByName[p.key.region]
		if !ok {
			return nil, false
		}
		region = r
	}
	a.srcMu.Lock()
	defer a.srcMu.Unlock()
	s, ok := a.sources[p.key]
	if !ok {
		s = &Source{
			Kind:     p.key.kind,
			Pos:      p.key.pos,
			FnName:   p.fn,
			Region:   region,
			Detail:   p.key.detail,
			Rule:     p.key.rule,
			Contexts: make(map[string]bool),
			id:       len(a.srcList),
		}
		a.sources[p.key] = s
		a.srcList = append(a.srcList, s)
	}
	return s, true
}

func (b *binder) bindSummary(p pSummary) (summary, bool) {
	s := summary{}
	ret, ok := b.bindTaint(p.ret)
	if !ok {
		return summary{}, false
	}
	s.ret = ret
	for _, e := range p.effects {
		ref, ok := b.bindRef(e.ref)
		if !ok {
			return summary{}, false
		}
		s.effects = append(s.effects, effect{ref: ref, par: paramsFromMap(e.params)})
	}
	for _, o := range p.asserts {
		s.asserts = append(s.asserts, obligation{
			pos: o.pos, fnName: o.fnName, vbl: o.vbl, rule: o.rule, par: paramsFromMap(o.params),
		})
	}
	return s, true
}
