package core_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/dataflow"
	"safeflow/internal/ir"
)

// splitEdit is one single-function edit of the split 130-unit system:
// the unit it lands in, the unit's edited text and its text before.
type splitEdit struct{ unit, edited, base string }

// splitEdits maps seeded edits of raw onto the units of its split form
// g, skipping no-op touches.
func splitEdits(t *testing.T, raw, g corpus.Generated, n int) []splitEdit {
	t.Helper()
	var out []splitEdit
	for seed := int64(1); len(out) < n; seed++ {
		for _, e := range corpus.GenerateEdits(raw, seed, 1) {
			if e.Kind == corpus.EditNoop {
				continue
			}
			found := false
			for _, cf := range g.CFiles {
				if strings.Contains(g.Sources[cf], e.Old) {
					out = append(out, splitEdit{cf, strings.Replace(g.Sources[cf], e.Old, e.New, 1), g.Sources[cf]})
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edit %s anchors in no unit", e.Desc)
			}
		}
	}
	return out
}

// checkKeptIndexes checks the session's index table against the module
// of its last report: every kept index equals a fresh build of its
// function, and the table holds no function outside the module. It
// returns how many kept indexes are the very ones prev held for the same
// function (reused, not rebuilt), and the table's entries by function.
func checkKeptIndexes(t *testing.T, s *core.Session, m *ir.Module, prev map[*ir.Function]*dataflow.FnInfo) (int, map[*ir.Function]*dataflow.FnInfo) {
	t.Helper()
	idx := core.SessionIndex(s)
	kept := make(map[*ir.Function]*dataflow.FnInfo)
	reused := 0
	for _, f := range m.Funcs {
		fi, ok := idx.Lookup(f)
		if !ok {
			continue
		}
		kept[f] = fi
		if !reflect.DeepEqual(fi, dataflow.NewInfo(f)) {
			t.Errorf("%s: the kept def-use index differs from a fresh build", f.Name)
		}
		if prev[f] == fi {
			reused++
		}
	}
	if len(kept) == 0 {
		t.Error("the session keeps no def-use index")
	}
	if n := idx.Len(); n != len(kept) {
		t.Errorf("the session keeps %d def-use indexes, %d of them for the current module's functions", n, len(kept))
	}
	return reused, kept
}

// Over a seeded edit script on the split 130-unit system, each edit
// reverted, every update keeps exactly the indexes of the current
// module's functions, each equal to a fresh build, reuses the indexes of
// the functions its link kept, and reports byte-identically to a
// from-scratch analysis, at one, two and four workers.
func TestSessionIndexReuse(t *testing.T) {
	raw := corpus.Generate(1, corpus.MaxShape)
	g := corpus.Split(raw)
	edits := splitEdits(t, raw, g, 10)
	ctx := context.Background()
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			opts := core.Options{Workers: w}
			s, rep, err := core.OpenSession(ctx, g.Name, g.Sources, g.CFiles, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			cur := make(map[string]string, len(g.Sources))
			for k, v := range g.Sources {
				cur[k] = v
			}
			_, kept := checkKeptIndexes(t, s, rep.Module, nil)
			for i, e := range edits {
				for step, text := range []string{e.edited, e.base} {
					what := fmt.Sprintf("edit %d of %s (step %d)", i, e.unit, step)
					cur[e.unit] = text
					rep, st, err := s.Update(ctx, map[string]string{e.unit: text})
					if err != nil || !st.Incremental {
						t.Fatalf("%s: incremental=%v err=%v", what, st.Incremental, err)
					}
					var reused int
					reused, kept = checkKeptIndexes(t, s, rep.Module, kept)
					if reused < len(kept)/2 {
						t.Errorf("%s: %d of %d kept indexes reused", what, reused, len(kept))
					}
					if got, want := renderAll(t, rep), renderAll(t, fresh(t, g.Name, cur, g.CFiles, opts)); got != want {
						t.Fatalf("%s: the session report differs from a from-scratch analysis", what)
					}
				}
			}
		})
	}
}
