// Content-keyed module cache. Once phase 3 replays a stored state, the
// warm repeat of an unchanged system spends most of its time in the
// steps that run one at a time after the unit pool: type checking,
// lowering and mem2reg. A compile through Options.Modules whose every
// unit came out of the pool clean looks the whole module up by
// moduleKey and, on a hit, skips those steps.
//
// The key hashes the system name and each unit's name and parse key in
// cFiles order. A parse key hashes the unit's fully preprocessed text, so
// the defines and every header a unit includes are covered exactly, and
// the parsed units — which are all that type checking and lowering read
// — are the same whenever the key is. A module is stored only after a
// compile with no diagnostic, so a degraded, cancelled or panicking
// compile never publishes one; a clean fail-stop and a clean recovering
// compile build the same module and share its entry. The entry keeps the
// module and its assert names, not the ASTs or the semantic program, and
// one slot of analysis facts per points-to mode. The front end never
// reads the slots: the analysis (internal/core) fills one after the
// first clean, converged run over the module under that mode — its call
// graph, shm facts, restriction violations, points-to result, def-use
// indexes and phase-3 fingerprints — and a later analysis that hits the
// entry reads them instead of computing them again. The first writer
// wins; stored facts are never replaced.
//
// A stored module and the facts in its slots are shared by every
// analysis that hits the entry, possibly at once: nothing after the
// front end may modify them.

package frontend

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"

	"safeflow/internal/cache"
	"safeflow/internal/ir"
)

// ModuleCache is the in-memory module tier: compiled modules by
// moduleKey, bounded in IR instructions. Create it with NewModuleCache.
type ModuleCache = cache.LRU[[sha256.Size]byte, *CompiledModule]

// CompiledModule is one module tier entry: what the analysis phases read
// of a compile, and the facts analyses derived from it.
type CompiledModule struct {
	Module     *ir.Module
	AssertVars map[*ir.Call]string
	// facts holds one slot of analysis facts per points-to mode, opaque
	// to the front end.
	facts [FactSlots]atomic.Value
}

// FactSlots is the number of fact slots of an entry: one per points-to
// mode.
const FactSlots = 2

// Facts returns the analysis facts stored in slot i, nil until an
// analysis stored some or when i is out of range.
func (cm *CompiledModule) Facts(i int) any {
	if i < 0 || i >= FactSlots {
		return nil
	}
	return cm.facts[i].Load()
}

// StoreFacts stores analysis facts in slot i unless it holds some
// already: the first writer wins. facts must be non-nil and of one type
// for every call, and nothing may modify them once stored. An
// out-of-range i stores nothing.
func (cm *CompiledModule) StoreFacts(i int, facts any) {
	if i < 0 || i >= FactSlots {
		return
	}
	cm.facts[i].CompareAndSwap(nil, facts)
}

// maxModuleInstrs bounds a ModuleCache in IR instructions, which track
// the memory a module keeps better than its unit count does: the split
// 130-unit system (seed 1) has 4630 instructions and keeps 1.77 MB, a
// 4-unit daemon-sized system about 330 and 80-90 KB. The bound holds one
// module of the former. A module weighs at least a maxModules-th of the
// bound, so small systems, whose compile costs little, keep at most
// maxModules modules: 25 of them added about 6 MB (13%) to the
// daemon-mixed benchmark's peak RSS.
const (
	maxModuleInstrs = 8192
	maxModules      = 8
)

// NewModuleCache returns an empty module tier.
func NewModuleCache() *ModuleCache {
	return cache.NewWeightedLRU[[sha256.Size]byte](maxModuleInstrs, moduleEcho, moduleWeight)
}

// moduleWeight is a module entry's weight: its instruction count, and at
// least a maxModules-th of the bound.
func moduleWeight(cm *CompiledModule) int {
	n := 0
	for _, f := range cm.Module.Funcs {
		n += f.NumInstrs()
	}
	return max(n, maxModuleInstrs/maxModules)
}

// moduleEcho is a module entry's integrity sum: its function and global
// counts, and each function's name, block count and instruction count.
// It allocates nothing: a hit verifies it.
func moduleEcho(cm *CompiledModule) uint64 {
	m := cm.Module
	h := fnvInt(fnvOffset, len(m.Funcs))
	h = fnvInt(h, len(m.Globals))
	for _, f := range m.Funcs {
		for i := 0; i < len(f.Name); i++ {
			h = (h ^ uint64(f.Name[i])) * fnvPrime
		}
		h = fnvInt(h, len(f.Blocks))
		h = fnvInt(h, f.NumInstrs())
	}
	return h
}

// FNV-1a, 64 bits.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvInt folds n's eight little-endian bytes into h.
func fnvInt(h uint64, n int) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(n>>(8*i)))) * fnvPrime
	}
	return h
}

// moduleKey hashes the system name and each unit's name and parse key,
// in cFiles order.
func moduleKey(name string, cFiles []string, outs []unitOutcome) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	put := func(s string) {
		h.Write(binary.LittleEndian.AppendUint64(n[:0], uint64(len(s))))
		h.Write(readOnlyBytes(s))
	}
	put(name)
	for i, cf := range cFiles {
		put(cf)
		h.Write(outs[i].key[:])
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}
