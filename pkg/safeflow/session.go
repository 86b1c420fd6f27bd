package safeflow

import (
	"context"

	"safeflow/internal/core"
)

// Session holds a system open for incremental re-analysis. Open runs
// the full pipeline once; Update re-analyzes after source edits,
// recompiling only the translation units whose preprocessed contents
// changed and re-solving only the functions the edit invalidated (plus
// their transitive callers), reusing every other function summary in
// place. The patched report is byte-identical — same text rendering,
// same JSON with canonicalized metrics — to a from-scratch analysis of
// the edited sources at every worker count. Inputs the fast path cannot
// represent exactly (new parse errors, conflicting declarations, …)
// fall back to a from-scratch run transparently; UpdateStats.Incremental
// reports which path ran.
//
// A Session is safe for concurrent use; updates are serialized.
type Session struct {
	s *core.Session
}

// UpdateStats describes how one Update was executed: which path ran and
// how much of the previous run it reused.
type UpdateStats = core.UpdateStats

// Open analyzes the system from scratch and opens it for incremental
// updates. Parameters are as for Analyze; the returned report is
// identical to Analyze's.
//
// Deprecated: Use OpenContext, which can be cancelled.
func Open(name string, sources map[string]string, cFiles []string, opts Options) (*Session, *Report, error) {
	return OpenContext(context.Background(), name, sources, cFiles, opts)
}

// OpenContext is Open with deadline/cancellation support.
func OpenContext(ctx context.Context, name string, sources map[string]string, cFiles []string, opts Options) (*Session, *Report, error) {
	s, rep, err := core.OpenSession(ctx, name, sources, cFiles, opts)
	if err != nil {
		return nil, nil, err
	}
	return &Session{s: s}, rep, nil
}

// Update applies source edits and returns the re-analyzed report.
// changed maps file names to new contents — edited files, new headers,
// or new translation units (new .c files join the unit list in sorted
// order); removed names files to delete from the source tree (removed
// .c files leave the unit list).
//
// Deprecated: Use UpdateContext, which can be cancelled.
func (s *Session) Update(changed map[string]string, removed ...string) (*Report, UpdateStats, error) {
	return s.UpdateContext(context.Background(), changed, removed...)
}

// UpdateContext is Update with deadline/cancellation support. A
// cancelled update leaves the session on its last good state; the next
// update proceeds from there.
func (s *Session) UpdateContext(ctx context.Context, changed map[string]string, removed ...string) (*Report, UpdateStats, error) {
	return s.s.Update(ctx, changed, removed...)
}

// ErrSessionClosed is returned by Update on a session Close has torn
// down.
var ErrSessionClosed = core.ErrSessionClosed

// Close tears the session down: it waits for any in-flight update to
// finish — a session is never interrupted mid-update — then releases
// the captured per-function state. Further updates fail with
// ErrSessionClosed; Last keeps answering from the final state. Closing
// twice is a no-op.
func (s *Session) Close() { s.s.Close() }

// Last returns the most recent report (the open report until the first
// update) and the stats of the most recent update.
func (s *Session) Last() (*Report, UpdateStats) { return s.s.Last() }

// CFiles returns a copy of the session's current translation-unit list.
func (s *Session) CFiles() []string { return s.s.CFiles() }
