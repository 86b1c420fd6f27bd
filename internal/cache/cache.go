// Package cache is SafeFlow's one in-memory cache: a generic,
// self-verifying LRU. It holds no cache of its own; callers own the
// values. The analysis instantiates it three times, bundled in
// core.Cache: a parse tier (parsed ASTs keyed by the SHA-256 of a unit's
// name and preprocessed text, frontend.ParseCache), a module tier
// (compiled modules keyed by the system name and every unit's parse key,
// frontend.ModuleCache) and a state tier (the last converged phase-3
// state of each system, keyed by name and options).
//
// An LRU bounds the total weight of its entries. Every entry of the
// parse and state tiers weighs 1; a module weighs its IR instructions,
// which follow the memory it keeps.
//
// Every entry carries a tag and an integrity sum. The tag names what the
// value was computed from when the key does not (a state's source
// digest): a lookup with another tag is a plain miss that neither
// verifies nor promotes the entry, so a system keeps one slot as its
// sources change. The sum is taken by Put and compared by Get; a value
// that no longer matches it (memory corruption, a stray mutation of a
// shared value) is evicted and reported corrupt, and the caller counts it
// and recomputes, so a damaged entry degrades to a miss, never to a wrong
// report. The sum is an integrity check, not a cryptographic one.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a bounded, self-verifying map from K to V, safe for concurrent
// use.
type LRU[K comparable, V any] struct {
	mu     sync.Mutex
	max    int
	sum    func(V) uint64
	weight func(V) int // nil: every entry weighs 1
	total  int         // the weight of every entry held
	lru    list.List   // of *entry[K, V], most recently used first
	byKey  map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key    K
	tag    uint64
	val    V
	sum    uint64 // sum(val) when it was stored
	weight int
}

// NewLRU returns an empty LRU holding at most max entries, verified by
// sum.
func NewLRU[K comparable, V any](max int, sum func(V) uint64) *LRU[K, V] {
	return NewWeightedLRU[K](max, sum, nil)
}

// NewWeightedLRU returns an empty LRU whose entries weigh at most max in
// total, verified by sum; weight (at least 1) is taken once, by Put.
func NewWeightedLRU[K comparable, V any](max int, sum func(V) uint64, weight func(V) int) *LRU[K, V] {
	return &LRU[K, V]{max: max, sum: sum, weight: weight, byKey: make(map[K]*list.Element)}
}

// Get returns the value stored under key when it was stored with tag.
// An entry with another tag is a miss and stays where it is. An entry
// whose value no longer matches its sum is evicted: Get reports it
// corrupt and a miss.
func (c *LRU[K, V]) Get(key K, tag uint64) (v V, ok, corrupt bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byKey[key]
	if !found {
		return v, false, false
	}
	e := el.Value.(*entry[K, V])
	if e.tag != tag {
		return v, false, false
	}
	if c.sum(e.val) != e.sum {
		c.remove(el)
		return v, false, true
	}
	c.lru.MoveToFront(el)
	return e.val, true, false
}

// Put stores v, tagged with tag, under key, replacing what key held, and
// records its sum, then evicts the least recently used entries until the
// weight is within the bound. A value heavier than the bound is not
// stored (what key held is dropped). v must not be modified after.
func (c *LRU[K, V]) Put(key K, tag uint64, v V) {
	e := &entry[K, V]{key: key, tag: tag, val: v, sum: c.sum(v), weight: 1}
	if c.weight != nil {
		e.weight = max(c.weight(v), 1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.byKey[key]; found {
		c.remove(el)
	}
	if e.weight > c.max {
		return
	}
	c.byKey[key] = c.lru.PushFront(e)
	c.total += e.weight
	for c.total > c.max {
		c.remove(c.lru.Back())
	}
}

// remove drops el; c.mu must be held.
func (c *LRU[K, V]) remove(el *list.Element) {
	e := c.lru.Remove(el).(*entry[K, V])
	delete(c.byKey, e.key)
	c.total -= e.weight
}

// Len reports the number of entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Corrupt damages the recorded sums of up to n entries, most recently
// used first, and returns how many it damaged: the next Get of a damaged
// entry must evict it and report it corrupt. It is the seam the
// fault-injection tests use to check that damage never reaches a report.
func (c *LRU[K, V]) Corrupt(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	damaged := 0
	for el := c.lru.Front(); el != nil && damaged < n; el = el.Next() {
		el.Value.(*entry[K, V]).sum++
		damaged++
	}
	return damaged
}
