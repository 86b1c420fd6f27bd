package frontend_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	. "safeflow/internal/frontend"
	"safeflow/internal/ir"
	"safeflow/internal/vfg"
)

// funcNames lists a module's functions in module order.
func funcNames(m *ir.Module) []string {
	names := make([]string, len(m.Funcs))
	for i, fn := range m.Funcs {
		names[i] = fn.Name
	}
	return names
}

// Two compiles of one system, at one worker and at the default count,
// give the same function order: builtin declarations included, the
// module's declaration order is a function of the sources.
func TestBuiltinOrderDeterministic(t *testing.T) {
	for _, sys := range corpus.All() {
		src, err := sys.SourceMap()
		if err != nil {
			t.Fatal(err)
		}
		var first []string
		for _, workers := range []int{1, 0, 1, 0} {
			res, err := Compile(context.Background(), sys.Name, cpp.MapSource(src), sys.CFiles, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", sys.Name, err)
			}
			names := funcNames(res.Module)
			if first == nil {
				first = names
				continue
			}
			if !slices.Equal(names, first) {
				t.Fatalf("%s at Workers %d: function order\n%v\ndiffers from the first compile's\n%v", sys.Name, workers, names, first)
			}
		}
	}
}

// linkSession drives a fragment compiler over a split 130-unit system,
// checking after every compile that the linked module equals a full link
// of the same fragments.
type linkSession struct {
	t       *testing.T
	fc      *FragmentCompiler
	sources map[string]string
	cFiles  []string
}

func newLinkSession(t *testing.T, g corpus.Generated) *linkSession {
	s := &linkSession{
		t:       t,
		fc:      NewFragmentCompiler(g.Name, Options{}, vfg.HashFunctionBody),
		sources: make(map[string]string, len(g.Sources)),
		cFiles:  g.CFiles,
	}
	for k, v := range g.Sources {
		s.sources[k] = v
	}
	s.compile("open")
	return s
}

// compile links the current sources and returns the slot table it used.
func (s *linkSession) compile(what string) any {
	s.t.Helper()
	if _, _, ok := s.fc.Compile(context.Background(), cpp.MapSource(s.sources), s.cFiles, nil); !ok {
		s.t.Fatalf("%s: the fragment path declined", what)
	}
	if err := CheckLastLink(s.fc); err != nil {
		s.t.Fatalf("%s: %v", what, err)
	}
	return LinkTable(s.fc)
}

// Over a seeded edit script — body tweaks, annotation flips and rewrites,
// each reverted — every link equals a full link of the same fragments,
// and none of those edits changes a declaration shape, so the slot table
// built at open serves every link.
func TestLinkTableEditScript(t *testing.T) {
	raw := corpus.Generate(1, corpus.MaxShape)
	s := newLinkSession(t, corpus.Split(raw))
	table := LinkTable(s.fc)
	kinds := make(map[corpus.EditKind]int)
	for seed := int64(1); len(kinds) < 3 || kinds[corpus.EditBodyTweak] < 6 ||
		kinds[corpus.EditAnnotationFlip] < 6 || kinds[corpus.EditRewrite] < 6; seed++ {
		for _, e := range corpus.GenerateEdits(raw, seed, 1) {
			if e.Kind == corpus.EditNoop || kinds[e.Kind] >= 6 {
				continue
			}
			unit := ""
			for _, cf := range s.cFiles {
				if strings.Contains(s.sources[cf], e.Old) {
					unit = cf
					break
				}
			}
			if unit == "" {
				t.Fatalf("edit %s anchors in no unit", e.Desc)
			}
			kinds[e.Kind]++
			base := s.sources[unit]
			s.sources[unit] = strings.Replace(base, e.Old, e.New, 1)
			if got := s.compile(e.Kind.String() + " " + e.Desc); got != table {
				t.Errorf("%s %s: the slot table was rebuilt", e.Kind, e.Desc)
			}
			s.sources[unit] = base
			if got := s.compile("revert " + e.Desc); got != table {
				t.Errorf("revert %s: the slot table was rebuilt", e.Desc)
			}
		}
	}
}

// An edit that changes a declaration shape — a new prototype, a changed
// signature, a new global, a struct field — rebuilds the slot table, and so does its
// revert; a body edit after it reuses the rebuilt table.
func TestLinkTableShapeChange(t *testing.T) {
	g := corpus.Split(corpus.Generate(2, corpus.MaxShape))
	s := newLinkSession(t, g)
	unit := s.cFiles[len(s.cFiles)/2]
	s.sources[unit] += "int linkTableBody(void)\n{\n    return 41;\n}\n"
	s.compile("body function")
	base := s.sources[unit]
	const structDecl = "struct LinkTableProbe { int a; };\nstruct LinkTableProbe linkTableProbe;\n"
	for _, e := range []struct{ name, from, to string }{
		{"prototype", base, base + "double linkTableProto(double v);\n"},
		{"signature", base + "double linkTableProto(double v);\n", base + "double linkTableProto(int v);\n"},
		{"global", base, base + "double linkTableGlobal;\n"},
		{"struct", base, base + structDecl},
		{"struct field", base + structDecl, base + strings.Replace(structDecl, "int a;", "int a; int b;", 1)},
	} {
		s.sources[unit] = e.from
		before := s.compile(e.name + " base")
		s.sources[unit] = e.to
		edited := s.compile(e.name)
		if edited == before {
			t.Errorf("%s: the slot table was reused", e.name)
		}
		s.sources[unit] = strings.Replace(e.to, "return 41;", "return 42;", 1)
		if s.compile(e.name+", then a body edit") != edited {
			t.Errorf("%s: a body edit rebuilt the slot table", e.name)
		}
		s.sources[unit] = e.from
		if s.compile("revert "+e.name) == edited {
			t.Errorf("revert %s: the slot table was reused", e.name)
		}
	}
}
