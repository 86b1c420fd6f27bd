package core

import (
	"context"

	"safeflow/internal/cpp"
	"safeflow/internal/dataflow"
	"safeflow/internal/frontend"
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

// ModuleFacts compiles the sources through opts.Cache and returns the
// facts the module tier entry it reaches holds for opts' points-to mode:
// nil when the compile fails, when there is no entry, or when no run
// stored facts. A compile that finds no entry stores one, as any compile
// through the Cache does.
func ModuleFacts(name string, sources map[string]string, cFiles []string, opts Options) any {
	rr, err := frontend.CompileWith(context.Background(), name, cpp.MapSource(sources), cFiles, frontend.Options{
		Defines: opts.Defines,
		Cache:   opts.Cache.parseTier(),
		Modules: opts.Cache.moduleTier(),
	}, true)
	if err != nil || rr.Entry == nil {
		return nil
	}
	if f, _ := rr.Entry.Facts(factSlot(pointsToMode(opts))).(*moduleFacts); f != nil {
		return f
	}
	return nil
}
