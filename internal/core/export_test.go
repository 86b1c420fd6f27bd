package core

import (
	"safeflow/internal/cpp"
	"safeflow/internal/dataflow"
)

// PlantState re-tags the state the last analysis of name under opts
// over the sources from stored in opts.Cache, as if it had been computed
// from the sources to, so the next analysis of to replays a different
// program's state. It reports whether there was a state to re-tag.
func PlantState(name string, opts Options, from, to map[string]string, fromFiles, toFiles []string) bool {
	key := stateKey(name, opts)
	_, _, fromDigest := scanSources(cpp.MapSource(from), fromFiles)
	_, _, toDigest := scanSources(cpp.MapSource(to), toFiles)
	st, ok, _ := opts.Cache.State.Get(key, fromDigest)
	if !ok {
		return false
	}
	opts.Cache.State.Put(key, toDigest, st)
	return true
}

// SessionIndex returns the def-use index table s keeps across updates.
func SessionIndex(s *Session) *dataflow.Index { return s.idx }
