package cache

import (
	"fmt"
	"sync"
	"testing"
)

// val is a test value whose integrity sum is its n field, so a test
// damages it by changing n.
type val struct{ n int }

// newCounting returns an LRU of *val whose sum counts its calls.
func newCounting(max int, calls *int) *LRU[string, *val] {
	return NewLRU[string](max, func(v *val) uint64 {
		*calls++
		return uint64(v.n)
	})
}

// step is one operation on an LRU and, for a get, what it must see.
type step struct {
	op      string // "put", "get" or "damage"
	key     string
	tag     uint64
	n       int  // put: the value's n
	ok      bool // get: want a hit
	corrupt bool // get: want a corrupt report
	sums    int  // get: sum calls this get may make (0 or 1)
}

func TestLRU(t *testing.T) {
	for _, tc := range []struct {
		name  string
		max   int
		steps []step
		keys  []string // keys left at the end, most recent first
	}{
		{
			name: "evicts the least recently used",
			max:  2,
			steps: []step{
				{op: "put", key: "a", n: 1},
				{op: "put", key: "b", n: 2},
				{op: "get", key: "a", ok: true, sums: 1}, // a is now the most recent
				{op: "put", key: "c", n: 3},              // evicts b
				{op: "get", key: "b"},
				{op: "get", key: "a", ok: true, sums: 1},
				{op: "get", key: "c", ok: true, sums: 1},
			},
			keys: []string{"c", "a"},
		},
		{
			name: "put over an existing key replaces and promotes it",
			max:  2,
			steps: []step{
				{op: "put", key: "a", n: 1},
				{op: "put", key: "b", n: 2},
				{op: "put", key: "a", tag: 7, n: 10}, // a replaced, now the most recent
				{op: "put", key: "c", n: 3},          // evicts b
				{op: "get", key: "a"},                // the old tag misses
				{op: "get", key: "a", tag: 7, ok: true, sums: 1},
				{op: "get", key: "b"},
			},
			keys: []string{"a", "c"},
		},
		{
			name: "a damaged value is evicted and reported corrupt once",
			max:  2,
			steps: []step{
				{op: "put", key: "a", n: 1},
				{op: "put", key: "b", n: 2},
				{op: "damage", key: "a"},
				{op: "get", key: "a", corrupt: true, sums: 1},
				{op: "get", key: "a"}, // gone: a plain miss
				{op: "get", key: "b", ok: true, sums: 1},
			},
			keys: []string{"b"},
		},
		{
			name: "a tag mismatch neither verifies nor promotes",
			max:  2,
			steps: []step{
				{op: "put", key: "a", tag: 1, n: 1},
				{op: "put", key: "b", tag: 1, n: 2},
				{op: "damage", key: "a"},
				{op: "get", key: "a", tag: 2}, // miss without a sum: damage unseen
				{op: "put", key: "c", n: 3},   // a was not promoted: it is evicted
				{op: "get", key: "a", tag: 1},
			},
			keys: []string{"c", "b"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			c := newCounting(tc.max, &calls)
			stored := map[string]*val{}
			for i, s := range tc.steps {
				switch s.op {
				case "put":
					v := &val{n: s.n}
					stored[s.key] = v
					c.Put(s.key, s.tag, v)
				case "damage":
					stored[s.key].n += 100
				case "get":
					before := calls
					v, ok, corrupt := c.Get(s.key, s.tag)
					if ok != s.ok || corrupt != s.corrupt {
						t.Fatalf("step %d: get %q tag %d: ok=%v corrupt=%v, want %v/%v", i, s.key, s.tag, ok, corrupt, s.ok, s.corrupt)
					}
					if ok && v != stored[s.key] {
						t.Fatalf("step %d: get %q returned another value", i, s.key)
					}
					if got := calls - before; got != s.sums {
						t.Fatalf("step %d: get %q took %d sums, want %d", i, s.key, got, s.sums)
					}
				}
			}
			var keys []string
			for el := c.lru.Front(); el != nil; el = el.Next() {
				keys = append(keys, el.Value.(*entry[string, *val]).key)
			}
			if fmt.Sprint(keys) != fmt.Sprint(tc.keys) || c.Len() != len(tc.keys) {
				t.Fatalf("keys %v (len %d), want %v", keys, c.Len(), tc.keys)
			}
		})
	}
}

// Corrupt damages the most recently used entries first, and each damaged
// entry is reported corrupt exactly once.
func TestLRUCorrupt(t *testing.T) {
	c := NewLRU[int](4, func(v int) uint64 { return uint64(v) })
	for k := 0; k < 3; k++ {
		c.Put(k, 0, k)
	}
	if n := c.Corrupt(2); n != 2 {
		t.Fatalf("Corrupt(2) damaged %d", n)
	}
	for _, k := range []int{0, 1, 2} {
		_, ok, corrupt := c.Get(k, 0)
		if want := k != 0; corrupt != want || ok == want {
			t.Errorf("key %d: ok=%v corrupt=%v, want corrupt=%v", k, ok, corrupt, want)
		}
	}
	if n := c.Corrupt(10); n != 1 || c.Len() != 1 {
		t.Fatalf("Corrupt(10) on one entry damaged %d, len %d", n, c.Len())
	}
}

// Concurrent gets and puts keep the LRU within its bound and every hit
// verified (run under -race).
func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[int](8, func(v *val) uint64 { return uint64(v.n) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*7 + i) % 16
				if i%3 == 0 {
					c.Put(k, uint64(k%2), &val{n: k})
					continue
				}
				if v, ok, corrupt := c.Get(k, uint64(k%2)); corrupt || (ok && v.n != k) {
					t.Errorf("key %d: ok=%v corrupt=%v", k, ok, corrupt)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 8 {
		t.Fatalf("len %d exceeds the bound 8", n)
	}
}

// A weighted LRU evicts the least recently used entries until the total
// weight fits, counts a replaced entry's weight once, and stores no
// entry heavier than its bound.
func TestLRUWeight(t *testing.T) {
	c := NewWeightedLRU[string](10, func(v *val) uint64 { return uint64(v.n) }, func(v *val) int { return v.n })
	keys := func() string {
		var ks []string
		for el := c.lru.Front(); el != nil; el = el.Next() {
			ks = append(ks, el.Value.(*entry[string, *val]).key)
		}
		return fmt.Sprint(ks, c.total)
	}
	for _, s := range []struct {
		key  string
		n    int
		want string // keys, most recent first, then the total weight
	}{
		{"a", 4, "[a] 4"},
		{"b", 4, "[b a] 8"},
		{"a", 2, "[a b] 6"},    // replaced: its old weight no longer counts
		{"c", 5, "[c a] 7"},    // 11 > 10 evicts b, the least recently used
		{"d", 0, "[d c a] 8"},  // a weight below 1 counts as 1
		{"e", 11, "[d c a] 8"}, // heavier than the bound: not stored
		{"a", 11, "[d c] 6"},   // and what the key held is dropped
		{"f", 10, "[f] 10"},
	} {
		c.Put(s.key, 0, &val{n: s.n})
		if got := keys(); got != s.want {
			t.Fatalf("after put %s(%d): %s, want %s", s.key, s.n, got, s.want)
		}
	}
	c.Corrupt(1)
	if _, ok, corrupt := c.Get("f", 0); ok || !corrupt || c.total != 0 || c.Len() != 0 {
		t.Fatalf("damaged entry: ok=%v corrupt=%v weight %d len %d", ok, corrupt, c.total, c.Len())
	}
}
