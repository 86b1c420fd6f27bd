package core

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"

	"safeflow/internal/cpp"
	"safeflow/internal/dataflow"
	"safeflow/internal/frontend"
	"safeflow/internal/irgen"
	"safeflow/internal/metrics"
	"safeflow/internal/policy"
	"safeflow/internal/vfg"
)

// Session holds a system open for incremental re-analysis. OpenSession
// is the first update, from empty state: it compiles and analyzes the
// system once and captures per-function state. Update recompiles only
// the translation units whose preprocessed contents changed (fragment
// compiler) and re-solves only the invalidated functions plus their
// transitive caller cone (incremental vfg). The patched report is
// byte-identical to a from-scratch analysis of the edited sources at
// every worker count; any input the fast path cannot represent exactly
// falls back to a from-scratch run transparently.
//
// A Session is safe for concurrent use; updates are serialized (the
// fragment cache and captured state are single-writer).
type Session struct {
	mu      sync.Mutex
	closed  bool
	name    string
	opts    Options
	sources map[string]string
	cFiles  []string
	fc      *frontend.FragmentCompiler
	// fragOK is false after the fragment path declined and the fallback
	// ran; updates then try fragments again only with captured state.
	fragOK  bool
	incr    *vfg.IncrState
	locMemo map[string]*locEntry
	last    *Report
	// lastRes is the linked module the last good report was computed
	// for. When an update's compile returns the same result object —
	// every fragment reused or adopted — the previous report is still
	// exact and the downstream phases are skipped.
	lastRes *irgen.Result
	// idx holds the def-use index of every function of the last linked
	// module: an update reuses the indexes of the functions its link
	// kept and prunes the rest.
	idx   *dataflow.Index
	stats UpdateStats
}

// UpdateStats describes how one Update was executed.
type UpdateStats struct {
	// Incremental is true when the update took the fast path (fragment
	// recompilation + incremental phase 3); false means a transparent
	// from-scratch fallback.
	Incremental bool
	// FuncsInvalidated / FuncsReused partition the defined functions:
	// the invalidation cone versus the summaries reused in place.
	FuncsInvalidated int
	FuncsReused      int
	// UnitsReplayed / UnitsSolved partition the (function, context)
	// closure of the incremental solve.
	UnitsReplayed int
	UnitsSolved   int
	// UnitsCutOff counts the replayed units inside the invalidation cone:
	// callers whose callees re-solved to their previous summaries.
	UnitsCutOff int
	// Restarts counts verification-triggered cone expansions.
	Restarts int
}

// OpenSession analyzes the system from scratch and opens it for
// incremental updates. The open is the session's first update, from
// empty state: one compile through the fragment compiler, falling back
// to the whole-module pipeline only when the fragment path declines. The
// sources map is copied; cFiles order is preserved (it determines report
// identity).
func OpenSession(ctx context.Context, name string, sources map[string]string, cFiles []string, opts Options) (*Session, *Report, error) {
	s := &Session{
		name:    name,
		opts:    opts,
		sources: make(map[string]string, len(sources)),
		cFiles:  append([]string(nil), cFiles...),
		locMemo: make(map[string]*locEntry),
		idx:     dataflow.NewIndex(),
		// No fragment compile has failed yet: the first update tries them.
		fragOK: true,
	}
	for k, v := range sources {
		s.sources[k] = v
	}
	fopts := frontend.Options{
		Defines:   s.opts.Defines,
		Workers:   s.opts.Workers,
		Cache:     s.opts.Cache.parseTier(),
		DiskCache: s.opts.DiskCache,
	}
	s.fc = frontend.NewFragmentCompiler(name, fopts, vfg.HashFunctionBody)
	rep, _, err := s.update(ctx)
	if err != nil {
		return nil, nil, err
	}
	s.last = rep
	return s, rep, nil
}

// Update applies source edits and re-analyzes. changed maps file names
// to new contents (new .c files are appended to the unit list in sorted
// order); removed names files to delete. It returns the patched report —
// byte-identical to a from-scratch analysis of the edited sources — and
// the execution stats.
func (s *Session) Update(ctx context.Context, changed map[string]string, removed ...string) (*Report, UpdateStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, UpdateStats{}, ErrSessionClosed
	}

	var added []string
	for f, text := range changed {
		if _, existed := s.sources[f]; !existed && strings.HasSuffix(f, ".c") {
			added = append(added, f)
		}
		s.sources[f] = text
	}
	sort.Strings(added)
	s.cFiles = append(s.cFiles, added...)
	for _, f := range removed {
		delete(s.sources, f)
		for i, cf := range s.cFiles {
			if cf == f {
				s.cFiles = append(s.cFiles[:i], s.cFiles[i+1:]...)
				break
			}
		}
	}

	rep, stats, err := s.update(ctx)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	s.last = rep
	s.stats = stats
	return rep, stats, nil
}

func (s *Session) update(ctx context.Context) (*Report, UpdateStats, error) {
	src := cpp.MapSource(s.sources)
	if s.fragOK || s.incr != nil {
		var col *metrics.Collector
		if s.opts.Stats {
			col = metrics.NewCollector()
			col.SetTranslationUnits(len(s.cFiles))
		}
		done := col.Phase("frontend")
		res, hashes, ok := s.fc.Compile(ctx, src, s.cFiles, col)
		done()
		if ok && res == s.lastRes && s.last != nil {
			// Every fragment was reused or adopted: the module is the one
			// the last report was computed for, so that report is still
			// exact. Re-count the source stats (comments move them) and
			// mirror a full run's metric shape — phase list and SCC count
			// survive canonicalization and must match a fresh analysis.
			s.fragOK = true
			for _, ph := range []string{"shmflow", "restrict", "pointsto", "vfg"} {
				col.Phase(ph)()
			}
			reused := len(hashes)
			if col != nil {
				if m := s.last.Metrics; m != nil {
					col.SetPhase3(m.SCCs, 0, 0, 0, 0)
				}
				col.SetIncremental(0, reused, 0, 0)
			}
			rep := *s.last
			var sups []policy.Suppression
			rep.LinesOfCode, rep.AnnotationLines, sups = s.countStats()
			// Comment-only edits can move safeflow:ignore directives
			// without changing the module: re-apply suppression from the
			// raw findings so the patched report stays byte-identical to a
			// from-scratch run.
			rep.finishReport(activePolicy(s.opts), sups)
			rep.Metrics = col.Finish()
			return &rep, UpdateStats{Incremental: true, FuncsReused: reused}, nil
		}
		if ok {
			s.fragOK = true
			opts := s.opts
			opts.incrOpts = &vfg.IncrOptions{Prev: s.incr, BodyHashes: hashes}
			rep, err := analyzeModuleWith(ctx, s.name, res, opts, col, nil, 0, s.idx, nil)
			s.idx.Prune(res.Module)
			if err != nil {
				return nil, UpdateStats{}, err
			}
			var sups []policy.Suppression
			rep.LinesOfCode, rep.AnnotationLines, sups = s.countStats()
			rep.finishReport(activePolicy(s.opts), sups)
			rep.Metrics = col.Finish()
			if rep.incrState != nil {
				// A run that crashed or was cancelled captures no state;
				// keep the last good checkpoint (the next update's
				// fingerprint diff is taken against it, which is sound —
				// anything changed since then is invalidated).
				s.incr = rep.incrState
			}
			s.lastRes = nil
			if !rep.Degraded && len(rep.Internal) == 0 {
				s.lastRes = res
			}
			st := UpdateStats{Incremental: true}
			if rep.incrStats != nil {
				st.FuncsInvalidated = rep.incrStats.FuncsInvalidated
				st.FuncsReused = rep.incrStats.FuncsReused
				st.UnitsReplayed = rep.incrStats.UnitsReplayed
				st.UnitsSolved = rep.incrStats.UnitsSolved
				st.UnitsCutOff = rep.incrStats.UnitsCutOff
				st.Restarts = rep.incrStats.Restarts
			}
			return rep, st, nil
		}
		if ctx.Err() != nil {
			return nil, UpdateStats{}, ctx.Err()
		}
	}

	// Fallback: from-scratch analysis. Capture fresh state when the run
	// allows it (non-degraded); a degraded run keeps the old checkpoint.
	s.fragOK = false
	s.lastRes = nil
	// The whole-module compile shares no function with the fragments.
	s.idx.Prune(nil)
	fullOpts := s.opts
	fullOpts.incrOpts = &vfg.IncrOptions{}
	rep, err := AnalyzeSources(ctx, s.name, src, s.cFiles, fullOpts)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	if rep.incrState != nil {
		s.incr = rep.incrState
	}
	return rep, UpdateStats{}, nil
}

// ErrSessionClosed is returned by Update on a session Close has torn
// down.
var ErrSessionClosed = errors.New("safeflow: session is closed")

// Close tears the session down: it waits for any in-flight Update to
// finish — a session is never interrupted mid-update — then marks the
// session closed and releases the captured per-function state. Further
// Updates fail with ErrSessionClosed; Last and CFiles keep answering
// from the final state. Closing twice is a no-op.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.fc = nil
	s.incr = nil
	s.lastRes = nil
	s.locMemo = nil
	s.idx = nil
}

// Last returns the most recent report (the open report until the first
// update), and the stats of the most recent update.
func (s *Session) Last() (*Report, UpdateStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.stats
}

// CFiles returns a copy of the current translation-unit list.
func (s *Session) CFiles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.cFiles...)
}

// locEntry memoizes one file's contribution to the whole-program source
// scans, keyed by content: its line counts, its safeflow:ignore
// directives and the quoted includes it pulls in.
type locEntry struct {
	content  string
	loc      int
	annots   int
	sups     []policy.Suppression
	includes []string
}

// countStats reproduces scanSources' counts and scanSourceSuppressions'
// directives over the session's sources, rescanning only files whose
// contents changed since the last update.
func (s *Session) countStats() (loc, annots int, sups []policy.Suppression) {
	walkSources(s.cFiles, func(name string) []string {
		text, ok := s.sources[name]
		if !ok {
			return nil
		}
		e := s.locMemo[name]
		if e == nil || e.content != text {
			e = &locEntry{content: text, sups: policy.ScanSuppressions(name, text), includes: cpp.QuotedIncludes(text)}
			e.loc, e.annots = lineStats(text)
			s.locMemo[name] = e
		}
		loc += e.loc
		annots += e.annots
		sups = append(sups, e.sups...)
		return e.includes
	})
	return loc, annots, sups
}
