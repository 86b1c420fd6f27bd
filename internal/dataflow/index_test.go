package dataflow

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"safeflow/internal/ir"
)

// scanUsers is the def-use chains built the plain way: one appended
// slice per value, in instruction order.
func scanUsers(fi *FnInfo) [][]int32 {
	users := make([][]int32, fi.NumValues)
	for idx, in := range fi.Instrs {
		for _, op := range in.AppendOperands(nil) {
			if n := ir.ValueNum(op); n >= 0 && n < fi.NumValues {
				users[n] = append(users[n], int32(idx))
			}
		}
	}
	return users
}

// The compressed rows hold exactly the per-value use lists of a plain
// operand scan, in the same order, duplicates (x+x) included.
func TestInfoRowsMatchOperandScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		rf := newRandFunc(r)
		want := scanUsers(rf.info)
		for n := 0; n < rf.info.NumValues; n++ {
			if got := rf.info.users(n); !slices.Equal(got, want[n]) {
				t.Fatalf("func %d value %d: rows %v, operand scan %v", i, n, got, want[n])
			}
		}
		if !reflect.DeepEqual(rf.info, NewInfo(rf.fn)) {
			t.Fatalf("func %d: a second build differs", i)
		}
	}
}

// Building an index allocates the index and one operand buffer, whatever
// the function's size.
func TestNewInfoAllocs(t *testing.T) {
	fn, _ := buildChain(200)
	NewInfo(fn)
	if n := testing.AllocsPerRun(20, func() { NewInfo(fn) }); n > 5 {
		t.Errorf("NewInfo: %.0f allocations, want at most 5", n)
	}
}

// An Index builds each function's index once, hands every caller the
// same one, and Prune keeps exactly the module's functions.
func TestIndexSharedAndPruned(t *testing.T) {
	a, _ := buildChain(3)
	b, _ := buildChain(4)
	b.Name = "other"
	m := ir.NewModule("m")
	m.AddFunc(a)
	m.AddFunc(b)

	x := NewIndex()
	var wg sync.WaitGroup
	got := make([]*FnInfo, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = x.Of(a)
		}(i)
	}
	wg.Wait()
	for _, fi := range got {
		if fi != got[0] {
			t.Fatal("concurrent requests built more than one index")
		}
	}
	x.Of(b)
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}

	// b's slot now holds another function object: its old index is dead.
	b2, _ := buildChain(4)
	b2.Name = "other"
	m2 := ir.NewModule("m")
	m2.AddFunc(a)
	m2.AddFunc(b2)
	x.Prune(m2)
	if _, ok := x.Lookup(b); ok || x.Len() != 1 {
		t.Fatalf("Prune kept a function the module no longer holds (Len %d)", x.Len())
	}
	if fi, ok := x.Lookup(a); !ok || fi != got[0] {
		t.Fatal("Prune dropped a live function's index")
	}
	x.Prune(nil)
	if x.Len() != 0 {
		t.Fatalf("Prune(nil) left %d indexes", x.Len())
	}

	var none *Index
	if fi := none.Of(a); fi == nil || fi == got[0] || !reflect.DeepEqual(fi, got[0]) {
		t.Fatal("the nil Index does not build a fresh index")
	}
}
