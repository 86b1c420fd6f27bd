package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
)

// outcome renders what a run produced, report or error, for comparison.
func outcome(t *testing.T, rep *core.Report, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	return renderAll(t, rep)
}

// Declarations shared by two units of the split system: one unit defines
// them, the other declares them. Each link-gate edit changes one line of
// the declaring unit.
const (
	linkDefs = `
struct LinkPair { int a; double b; };
struct LinkPair linkPair;
double linkLevel;

double linkHelper(double v)
{
    return v + linkLevel + linkPair.b;
}
`
	linkStruct = "struct LinkPair { int a; double b; };\n"
	linkGlobal = "extern double linkLevel;\n"
	linkProto  = "double linkHelper(double v);\n"
	linkDecls  = linkStruct + linkGlobal + linkProto + `
double linkUser(double x)
{
    return linkHelper(x) + linkLevel;
}
`
)

// Each edit makes the declaring unit disagree with the defining one in a
// way only the linker sees: the unit compiles cleanly on its own, but
// the whole-module pipeline would merge or reject it differently from
// naive per-unit merging. The session must leave its incremental path,
// produce exactly what a from-scratch analysis produces (report or
// error), and take the incremental path again once the edit is reverted.
func TestSessionLinkGates(t *testing.T) {
	g := corpus.Split(corpus.Generate(3, corpus.GenConfig{Regions: 3, Monitors: 4, Stages: 6}))
	const defUnit, declUnit = "stage000.c", "stage001.c"
	g.Sources[defUnit] += linkDefs
	g.Sources[declUnit] += linkDecls
	edits := []struct{ name, old, new string }{
		{"struct layout", linkStruct, "struct LinkPair { double b; int a; };\n"},
		{"global type", linkGlobal, "extern int linkLevel;\n"},
		{"prototype", linkProto, "double linkHelper(int v);\n"},
		{"second definition", linkProto, "double linkHelper(double v)\n{\n    return v;\n}\n"},
	}

	opts := core.Options{Workers: 2, Stats: true}
	s, rep, err := core.OpenSession(context.Background(), g.Name, g.Sources, g.CFiles, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got, want := renderAll(t, rep), renderAll(t, fresh(t, g.Name, g.Sources, g.CFiles, opts)); got != want {
		t.Fatalf("open report differs from fresh analysis")
	}
	base := g.Sources[declUnit]
	for _, e := range edits {
		edited := strings.Replace(base, e.old, e.new, 1)
		if edited == base {
			t.Fatalf("%s: edit does not anchor", e.name)
		}
		alone := cpp.MapSource{"gen.h": g.Sources["gen.h"], declUnit: edited}
		if _, err := frontend.Compile(context.Background(), "alone", alone, []string{declUnit}, frontend.Options{}); err != nil {
			t.Fatalf("%s: the edited unit does not compile on its own: %v", e.name, err)
		}

		for _, step := range []struct {
			what        string
			text        string
			incremental bool
		}{{"edit", edited, false}, {"revert", base, true}} {
			cur := map[string]string{}
			for k, v := range g.Sources {
				cur[k] = v
			}
			cur[declUnit] = step.text
			rep, stats, err := s.Update(context.Background(), map[string]string{declUnit: step.text})
			got := outcome(t, rep, err)
			frep, ferr := core.AnalyzeSources(context.Background(), g.Name, cpp.MapSource(cur), g.CFiles, opts)
			want := outcome(t, frep, ferr)
			if got != want {
				t.Errorf("%s %s: session differs from fresh analysis\n--- session ---\n%s\n--- fresh ---\n%s", e.name, step.what, got, want)
			}
			if stats.Incremental != step.incremental {
				t.Errorf("%s %s: Incremental = %v, want %v", e.name, step.what, stats.Incremental, step.incremental)
			}
		}
	}
}

// A long session on the split 130-unit system: 150 seeded edits, each
// followed by its revert, every update incremental and every 25th
// compared byte for byte with a from-scratch analysis. Reused fragments
// are relinked on every update, so this covers far more links than any
// per-session memo of type fingerprints used to hold.
func TestSessionLongEditRevert(t *testing.T) {
	raw := corpus.Generate(5, corpus.MaxShape)
	g := corpus.Split(raw)
	// Each edit is generated against the unedited system, which every
	// revert restores.
	var script []corpus.Edit
	for seed := int64(1); len(script) < 150; seed++ {
		script = append(script, corpus.GenerateEdits(raw, seed, 1)...)
	}
	opts := core.Options{Stats: true}
	s, _, err := core.OpenSession(context.Background(), g.Name, g.Sources, g.CFiles, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cur := map[string]string{}
	for k, v := range g.Sources {
		cur[k] = v
	}
	// The script was generated on the unsplit system: each edit applies
	// to the unit holding its anchor, and a no-op edit (an append to the
	// whole monitors.c there) appends a comment to the first monitor unit.
	unitOf := func(i int, e corpus.Edit) (string, string) {
		if e.Kind == corpus.EditNoop {
			return "monitor000.c", cur["monitor000.c"] + fmt.Sprintf("/* touch %d */\n", i)
		}
		for _, cf := range g.CFiles {
			if strings.Contains(cur[cf], e.Old) {
				return cf, strings.Replace(cur[cf], e.Old, e.New, 1)
			}
		}
		t.Fatalf("edit %d (%s) anchors in no unit", i, e.Desc)
		return "", ""
	}
	updates := 0
	update := func(unit, text, what string) {
		cur[unit] = text
		rep, stats, err := s.Update(context.Background(), map[string]string{unit: text})
		if err != nil {
			t.Fatalf("update %d (%s): %v", updates, what, err)
		}
		if !stats.Incremental {
			t.Errorf("update %d (%s): fell back to from-scratch analysis", updates, what)
		}
		if updates%25 == 0 {
			if got, want := renderAll(t, rep), renderAll(t, fresh(t, g.Name, cur, g.CFiles, opts)); got != want {
				t.Fatalf("update %d (%s): report differs from fresh analysis\n--- got ---\n%s\n--- want ---\n%s", updates, what, got, want)
			}
		}
		updates++
	}
	for i, e := range script {
		unit, text := unitOf(i, e)
		saved := cur[unit]
		update(unit, text, e.Desc)
		update(unit, saved, "revert "+e.Desc)
	}
	if updates < 300 {
		t.Fatalf("%d updates, want at least 300", updates)
	}
}
