package core

import (
	"safeflow/internal/cpp"
	"safeflow/internal/vfg"
)

// PlantState re-tags the state the last analysis of name under opts
// over the sources from stored, as if it had been computed from the
// sources to, so the next analysis of to replays a different program's
// state. It reports whether there was a state to re-tag.
func PlantState(name string, opts Options, from, to map[string]string, fromFiles, toFiles []string) bool {
	key := stateKey(name, opts)
	_, _, fromDigest := scanSources(cpp.MapSource(from), fromFiles)
	_, _, toDigest := scanSources(cpp.MapSource(to), toFiles)
	st, _ := vfg.LoadState(key, fromDigest)
	if st == nil {
		return false
	}
	vfg.StoreState(key, toDigest, st)
	return true
}
