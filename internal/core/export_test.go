package core

import (
	"context"

	"safeflow/internal/cpp"
	"safeflow/internal/dataflow"
	"safeflow/internal/frontend"
)

// PlantState re-tags the verdict the last analysis of name under opts
// over the sources from stored in opts.Cache with the tag of the sources
// to, as a module key whose 64-bit fold collides would; the entry keeps
// the full key of from. It reports whether there was a verdict to
// re-tag.
func PlantState(name string, opts Options, from, to map[string]string, fromFiles, toFiles []string) bool {
	key := stateKey(name, opts)
	st, ok, _ := opts.Cache.State.Get(key, sourcesTag(name, from, fromFiles, opts))
	if !ok {
		return false
	}
	opts.Cache.State.Put(key, sourcesTag(name, to, toFiles, opts), st)
	return true
}

// sourcesTag is the state tier tag of an analysis of the sources under
// opts: their module key folded to 64 bits, from a compile through a
// module tier of its own. It is zero when a unit fails.
func sourcesTag(name string, sources map[string]string, cFiles []string, opts Options) uint64 {
	rr, err := frontend.CompileWith(context.Background(), name, cpp.MapSource(sources), cFiles, frontend.Options{
		Defines: opts.Defines,
		Modules: frontend.NewModuleCache(),
	}, true)
	if err != nil {
		return 0
	}
	return foldKey(rr.Key)
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
		Units:   opts.Cache.unitTier(),
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
