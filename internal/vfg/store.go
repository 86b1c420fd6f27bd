// The store of last converged states: a process-level LRU that keeps,
// per system and analysis options, the IncrState of the last converged
// run, so a repeat analysis of the same sources replays every function
// instead of solving it.
//
// The key holds no source text, so a system holds one slot whatever its
// sources. Each entry is tagged with a digest of the sources it was
// computed from, and only a run over the same digest replays it: a run
// over changed sources solves from empty state, like a cold run, and
// its state replaces the slot. Re-analysis in proportion to an edit is
// what a session is for. The tag is not what makes replay sound: that
// comes from the per-function fingerprints, regionFingerprint and
// verifyIncremental, the argument that makes a session update sound.
// A stored state is immutable once stored and shared read-only by
// concurrent runs. Its structural checksum, taken when it is stored, is
// verified on every load; a damaged entry is evicted and the run solves
// from empty state.

package vfg

import (
	"container/list"
	"sort"
	"sync"
)

// maxCachedModules bounds the store; the least recently used entry is
// evicted first.
const maxCachedModules = 64

type storeEntry struct {
	key    string
	digest uint64 // of the sources st was computed from
	st     *IncrState
}

var stateStore = struct {
	sync.Mutex
	lru   *list.List // of *storeEntry, most recently used first
	byKey map[string]*list.Element
}{lru: list.New(), byKey: make(map[string]*list.Element)}

// LoadState returns the last converged state stored under key, or nil
// when there is none or it was computed from sources other than digest.
// corrupt reports an entry whose checksum no longer matched: it was
// evicted, and the caller counts it and solves from empty state.
func LoadState(key string, digest uint64) (st *IncrState, corrupt bool) {
	stateStore.Lock()
	defer stateStore.Unlock()
	el, ok := stateStore.byKey[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*storeEntry)
	if e.digest != digest {
		return nil, false
	}
	if e.st.check != e.st.checksum() {
		stateStore.lru.Remove(el)
		delete(stateStore.byKey, key)
		return nil, true
	}
	stateStore.lru.MoveToFront(el)
	return e.st, false
}

// StoreState records st, computed from the sources digest names, as the
// last converged state under key, and takes its checksum. st must come
// from a converged, unfaulted, non-degraded run (Result.NextIncr) and is
// not modified after.
func StoreState(key string, digest uint64, st *IncrState) {
	check := st.checksum()
	stateStore.Lock()
	defer stateStore.Unlock()
	st.check = check
	if el, ok := stateStore.byKey[key]; ok {
		e := el.Value.(*storeEntry)
		e.digest, e.st = digest, st
		stateStore.lru.MoveToFront(el)
		return
	}
	stateStore.byKey[key] = stateStore.lru.PushFront(&storeEntry{key: key, digest: digest, st: st})
	for stateStore.lru.Len() > maxCachedModules {
		oldest := stateStore.lru.Back()
		stateStore.lru.Remove(oldest)
		delete(stateStore.byKey, oldest.Value.(*storeEntry).key)
	}
}

// ResetStateStore empties the store (tests and benchmarks that need a
// cold process).
func ResetStateStore() {
	stateStore.Lock()
	defer stateStore.Unlock()
	stateStore.lru.Init()
	clear(stateStore.byKey)
}

// StateStoreKeys returns the sorted keys currently stored (test hook:
// lets a harness assert that a faulted run stored nothing).
func StateStoreKeys() []string {
	stateStore.Lock()
	defer stateStore.Unlock()
	keys := make([]string, 0, len(stateStore.byKey))
	for k := range stateStore.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CorruptStateStore damages up to n stored states in place without
// refreshing their checksums (test hook for the self-healing contract)
// and returns how many it damaged. The next load of a damaged state must
// evict it and solve from empty state.
func CorruptStateStore(n int) int {
	stateStore.Lock()
	defer stateStore.Unlock()
	corrupted := 0
	for el := stateStore.lru.Front(); el != nil && corrupted < n; el = el.Next() {
		st := el.Value.(*storeEntry).st
		st.cells = nil
		for k := range st.units {
			delete(st.units, k)
			break
		}
		corrupted++
	}
	return corrupted
}

// checksum derives the state's structural checksum: FNV-1a over each unit
// record's key and shape, each function fingerprint and each memory
// cell, combined by addition so no key needs sorting. It is an integrity
// check against truncation and stray mutation of shared state, not a
// cryptographic one.
func (st *IncrState) checksum() uint64 {
	var units, fns, cells uint64
	for key, rec := range st.units {
		h := newFNV()
		h.str(key)
		if rec != nil {
			h.str(rec.fn)
			for _, n := range []int{len(rec.sum.ret.srcs), len(rec.sum.ret.params), len(rec.sum.effects),
				len(rec.sum.asserts), len(rec.writes), len(rec.reads), len(rec.sources), len(rec.errors)} {
				h.int(int64(n))
			}
		}
		units += h.h
	}
	for name, fp := range st.fnFP {
		h := newFNV()
		h.str(name)
		h.int(int64(fp.body))
		h.int(int64(fp.env))
		fns += h.h
	}
	for ref, t := range st.cells {
		h := newFNV()
		h.str(ref.obj.name)
		h.int(ref.off)
		h.int(int64(len(t.srcs)))
		cells += h.h
	}
	h := newFNV()
	h.int(int64(st.regionFP))
	for _, n := range []int{len(st.units), len(st.fnFP), len(st.cells)} {
		h.int(int64(n))
	}
	h.int(int64(units))
	h.int(int64(fns))
	h.int(int64(cells))
	return h.h
}
