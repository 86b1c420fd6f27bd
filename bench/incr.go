package main

import (
	"fmt"
	"strings"
	"time"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

const (
	// incrSystems is how many 130-TU systems a seed generates. One
	// session is open at a time, and the run moves to the next system
	// every sliceUpdates updates: a from-scratch analysis of one system
	// can cost twice what another's does, so a run must cover several.
	incrSystems  = 8
	sliceUpdates = 50
	// editsPerSystem is the length of each system's edit list.
	editsPerSystem = 250
	// checkEvery is how often an update is checked against a cold
	// from-scratch analysis of the same sources.
	checkEvery = 5
)

// incrEdit streams seeded single-function edits through Session.Update
// on 130-TU systems. Each edit is followed by the update that reverts
// it, so a session's sources stay within one edit of the generated
// system and its cost does not drift with how far a run gets. Every
// checkEvery-th update is compared byte for byte with a from-scratch
// analysis of the same sources under a new nonce; that analysis is the
// workload's cold operation, what each update would cost without a
// session. Opening a session belongs to neither and is not counted.
type incrEdit struct {
	*env
	systems []editSystem
	at      int // system the open session is on
	sess    *safeflow.Session
	opts    safeflow.Options
	cur     system // the session's current sources
	revert  string // unit to restore next ("" when the next update is an edit)
	saved   string // its text before the edit
	updates int    // updates in this slice
	count   int    // updates in the run, for nonces
}

// editSystem is one generated system and its edits, each generated
// against the unedited system.
type editSystem struct {
	base  system
	edits []corpus.Edit
	next  int
}

func (w *incrEdit) setup() error {
	w.close()
	w.systems = nil
	r := w.rng()
	for i := 0; i < incrSystems; i++ {
		g := corpus.Generate(r.Int63(), scaleConfig)
		s := editSystem{base: split(g)}
		for len(s.edits) < editsPerSystem {
			s.edits = append(s.edits, corpus.GenerateEdits(g, r.Int63(), 1)...)
		}
		w.systems = append(w.systems, s)
	}
	w.at = -1
	return w.rotate(safeflow.Options{})
}

// moveOn closes the open session and moves to the next system.
func (w *incrEdit) moveOn() {
	if w.sess != nil {
		w.sess.Close()
		w.sess = nil
	}
	w.at = (w.at + 1) % len(w.systems)
	w.cur, w.revert, w.updates = w.systems[w.at].base.clone(), "", 0
}

// rotate moves to the next system and opens a session on it.
func (w *incrEdit) rotate(opts safeflow.Options) error {
	w.moveOn()
	w.opts = opts
	sess, _, err := safeflow.Open(w.cur.name, w.cur.sources, w.cur.cFiles, opts)
	w.sess = sess
	return err
}

// advance applies the next change to the current sources and returns
// the unit it changed: the revert of the last edit, or the system's next
// edit applied to the unit holding its anchor. The edits were generated
// on the unsplit system; a no-op edit, which appends to the whole
// monitors.c there, appends a comment to the monitor0 unit here.
func (w *incrEdit) advance() (string, error) {
	w.count++
	w.updates++
	if unit := w.revert; unit != "" {
		w.cur.sources[unit], w.revert = w.saved, ""
		return unit, nil
	}
	s := &w.systems[w.at]
	i := s.next % len(s.edits)
	s.next++
	e := s.edits[i]
	unit, text := "", ""
	if e.Kind == corpus.EditNoop {
		unit = "monitor000.c"
		text = w.cur.sources[unit] + fmt.Sprintf("/* touch %d */\n", i)
	} else {
		for _, cf := range w.cur.cFiles {
			if t := w.cur.sources[cf]; strings.Contains(t, e.Old) {
				unit, text = cf, strings.Replace(t, e.Old, e.New, 1)
				break
			}
		}
		if unit == "" {
			return "", fmt.Errorf("%s edit %d (%s) anchors in no unit", s.base.name, i, e.Desc)
		}
	}
	w.revert, w.saved = unit, w.cur.sources[unit]
	w.cur.sources[unit] = text
	return unit, nil
}

// step makes the next update, moving to the next system first when the
// slice is used up. It returns the time spent opening a session apart.
func (w *incrEdit) step() (rep *safeflow.Report, st safeflow.UpdateStats, d, opening time.Duration, err error) {
	if w.updates == sliceUpdates {
		t0 := time.Now()
		err := w.rotate(w.opts)
		if opening = time.Since(t0); err != nil {
			return nil, st, 0, opening, err
		}
	}
	unit, err := w.advance()
	if err != nil {
		return nil, st, 0, opening, err
	}
	t0 := time.Now()
	rep, st, err = w.sess.Update(map[string]string{unit: w.cur.sources[unit]})
	return rep, st, time.Since(t0), opening, err
}

func (w *incrEdit) checkDue() bool { return w.count%checkEvery == 0 }

// fromScratch analyzes the current sources cold and checks the session's
// report against it.
func (w *incrEdit) fromScratch(rep *safeflow.Report) (time.Duration, error) {
	src := w.cur.withNonce(w.nonce())
	t0 := time.Now()
	ref, err := safeflow.Analyze(src.name, src.sources, src.cFiles, safeflow.Options{})
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if err := src.checkKill(ref); err != nil {
		return d, err
	}
	got := *rep
	got.Metrics = nil
	return d, sameBytes(fmt.Sprintf("%s update %d", src.name, w.count), renderJSON(&got), renderJSON(ref))
}

func (w *incrEdit) measure(until time.Time, rec *recorder) {
	for time.Now().Before(until) {
		rep, _, d, opening, err := w.step()
		rec.exclude(opening)
		rec.add(false, d, err)
		if err == nil && w.checkDue() {
			d, err := w.fromScratch(rep)
			rec.add(true, d, err)
		}
	}
}

func (w *incrEdit) trace(until time.Time, lr *layerRun) {
	// The layer pass needs no session, and a session's live heap would
	// only add collection work to the re-driven operations.
	half := time.Now().Add(time.Until(until) / 2)
	w.moveOn()
	for time.Now().Before(half) {
		if w.updates == sliceUpdates {
			w.moveOn()
		}
		if _, err := w.advance(); !lr.check(err) {
			return
		}
		if w.checkDue() {
			lr.layerOp(w.cur.withNonce(w.nonce()), nil)
		}
	}

	// The tier pass reopens the session with run metrics on and a timed
	// disk tier.
	tc, dir, err := openTimedCache(w.env)
	if !lr.check(err) {
		return
	}
	defer removeAll(dir)
	if !lr.check(w.rotate(safeflow.Options{Stats: true, DiskCache: tc})) {
		return
	}
	m0 := readMem()
	for time.Now().Before(until) {
		rep, st, d, _, err := w.step()
		if !lr.check(err) {
			return
		}
		lr.tier.addRun(d, rep.Metrics)
		lr.tier.addUpdate(st)
		if w.checkDue() {
			_, err := w.fromScratch(rep)
			lr.check(err)
		}
	}
	lr.tier.addMem(readMem().sub(m0), lr.tier.ops)
	lr.tier.addDisk(tc.counters(), lr.tier.ops)
}

func (w *incrEdit) digest() string {
	var bases []system
	var edits []string
	for _, s := range w.systems {
		bases = append(bases, s.base)
		for _, e := range s.edits {
			edits = append(edits, e.File+"\x00"+e.Old+"\x00"+e.New)
		}
	}
	return digestSystems(bases, edits...)
}

func (w *incrEdit) close() {
	if w.sess != nil {
		w.sess.Close()
		w.sess = nil
	}
}
