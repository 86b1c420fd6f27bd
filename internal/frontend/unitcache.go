// Unit tier. A repeat compile of unchanged sources would preprocess
// every unit again and hash its whole expansion only to recompute the
// parse key it computed last time. A compile through Options.Units keeps,
// per unit, the parse key of its last clean compile and the files its
// preprocessor read, with their text (an expansion without its text),
// and applies the fragment compiler's freshness rule: while every one of
// those files still has the text it had, the preprocessed text — a pure
// function of the unit's name, the -D defines and the files it read —
// is the same, so the parse key is too. Such a unit skips the
// preprocessor and the hash and takes its parsed file from the parse
// tier; when the parse tier no longer holds the key (evicted, or damaged
// and counted in cache_corrupt_evictions) the unit is preprocessed as if
// it had no slot.
//
// A slot is keyed by the system name, the unit name and the defines, so
// a compile under other defines or of another system never reads it.
// Two compiles of one system with other sources replace each other's
// slots, and each checks the slot against its own sources. Only a unit
// that compiled clean is stored, and a stored entry is never modified:
// a hit hands its files to the compile's read set as they are.

package frontend

import (
	"slices"
	"strconv"

	"safeflow/internal/cache"
	"safeflow/internal/cpp"
)

// UnitCache is the in-memory unit tier: the parse key and read files of
// each unit's last clean compile, by unitSlot. Create it with
// NewUnitCache.
type UnitCache = cache.LRU[unitSlot, *expansion]

// unitSlot names a unit's slot in a UnitCache: the system name, the
// unit name and definesKey of the compile's defines.
type unitSlot struct {
	system, unit, defines string
}

// maxUnitEntries bounds a UnitCache: the parse tier's bound, since a
// slot is of use only while the parse tier holds its key.
const maxUnitEntries = maxParseEntries

// NewUnitCache returns an empty unit tier.
func NewUnitCache() *UnitCache {
	return cache.NewLRU[unitSlot](maxUnitEntries, unitEcho)
}

// unitEcho is a unit entry's integrity sum: its parse key and the
// number of files it read. It allocates nothing: a hit verifies it.
func unitEcho(e *expansion) uint64 {
	h := fnvInt(fnvOffset, len(e.deps))
	for _, b := range e.key {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// definesKey encodes defines in name order, each name and value
// length-prefixed; it is "" when there are none.
func definesKey(defines map[string]string) string {
	if len(defines) == 0 {
		return ""
	}
	names := make([]string, 0, len(defines))
	for k := range defines {
		names = append(names, k)
	}
	slices.Sort(names)
	var b []byte
	for _, k := range names {
		for _, s := range [2]string{k, defines[k]} {
			b = strconv.AppendInt(b, int64(len(s)), 10)
			b = append(b, ':')
			b = append(b, s...)
		}
	}
	return string(b)
}

// lookupUnit returns the outcome of the unit in slot without
// preprocessing it, and the files it read, when its slot is fresh
// against sources and the parse tier still holds its parse key.
func lookupUnit(sources cpp.Source, slot unitSlot, opts Options) (unitOutcome, map[string]string, bool) {
	if opts.Units == nil || opts.Cache == nil {
		return unitOutcome{}, nil, false
	}
	e, ok, corrupt := opts.Units.Get(slot, 0)
	if corrupt {
		opts.Metrics.AddCacheCorruptEvictions(1)
	}
	if !ok || !e.fresh(sources) {
		return unitOutcome{}, nil, false
	}
	f, ok, corrupt := opts.Cache.Get(e.key, 0)
	if corrupt {
		opts.Metrics.AddCacheCorruptEvictions(1)
	}
	if !ok {
		return unitOutcome{}, nil, false
	}
	opts.Metrics.AddFrontendCache(1, 0)
	return unitOutcome{file: f, key: e.key}, e.deps, true
}

// storeUnit stores the slot of a unit that compiled clean: its parse key
// and the files it read, which nothing may modify after.
func storeUnit(slot unitSlot, out unitOutcome, deps map[string]string, opts Options) {
	if opts.Units == nil || opts.Cache == nil || out.file == nil {
		return
	}
	opts.Units.Put(slot, 0, &expansion{key: out.key, deps: deps})
}
