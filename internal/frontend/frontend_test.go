package frontend

import (
	"context"
	"strings"
	"testing"

	"safeflow/internal/annot"
	"safeflow/internal/cpp"
	"safeflow/internal/ir"
)

func TestCompileSmoke(t *testing.T) {
	src := `
typedef struct { double angle; double track; double control; int ready; } SHMData;

SHMData *noncoreCtrl;
SHMData *feedback;
int shmLock;

double fabs(double);

int checkSafety(SHMData *f, SHMData *c) {
	if (fabs(c->control) > 4.9) {
		return 0;
	}
	return 1;
}

double decision(SHMData *f, double safeControl, SHMData *nc)
/***SafeFlow Annotation assume(core(nc, 0, sizeof(SHMData))) /***/
{
	if (checkSafety(f, nc)) {
		return nc->control;
	}
	return safeControl;
}

int main() {
	double safeControl;
	double output;
	int i;
	safeControl = 0.0;
	for (i = 0; i < 10; i++) {
		output = decision(feedback, safeControl, noncoreCtrl);
		/***SafeFlow Annotation assert(safe(output)) /***/
		safeControl = output * 0.5;
	}
	return 0;
}
`
	res, err := Compile(context.Background(), "smoke", cpp.MapSource{"main.c": src}, []string{"main.c"}, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := res.Module

	decision := m.FuncByName("decision")
	if decision == nil || decision.IsDecl {
		t.Fatalf("decision not lowered")
	}
	facts, ok := decision.Facts.(*annot.FuncFacts)
	if !ok || len(facts.Core) != 1 {
		t.Fatalf("decision facts = %#v, want one core fact", decision.Facts)
	}
	if facts.Core[0].Ptr != "nc" || facts.Core[0].Size != 32 {
		t.Errorf("core fact = %+v, want nc size 32", facts.Core[0])
	}

	mainFn := m.FuncByName("main")
	if mainFn == nil {
		t.Fatal("main not found")
	}
	var asserts int
	for _, b := range mainFn.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && c.Callee.Name == "__safeflow_assert_safe" {
				asserts++
				if res.AssertVars[c] != "output" {
					t.Errorf("assert var = %q, want output", res.AssertVars[c])
				}
			}
		}
	}
	if asserts != 1 {
		t.Fatalf("found %d assert intrinsics, want 1:\n%s", asserts, mainFn.String())
	}

	// After mem2reg the loop induction variable must be a phi, not a load.
	text := mainFn.String()
	if !strings.Contains(text, "phi") {
		t.Errorf("expected phis after promotion:\n%s", text)
	}
	for _, b := range mainFn.Blocks {
		for _, in := range b.Instrs {
			if a, ok := in.(*ir.Alloca); ok && a.VarName == "i" {
				t.Errorf("alloca for scalar %q survived promotion", a.VarName)
			}
		}
	}
}

func TestCompileIncludeAndDefine(t *testing.T) {
	sources := map[string]string{
		"defs.h": `
#ifndef DEFS_H
#define DEFS_H
#define MAXLEN 8
typedef struct { int buf[MAXLEN]; int n; } Ring;
#endif
`,
		"main.c": `
#include "defs.h"
Ring ring;
int sum() {
	int i;
	int total;
	total = 0;
	for (i = 0; i < MAXLEN; i++) {
		total += ring.buf[i];
	}
	return total;
}
int main() { return sum(); }
`,
	}
	res, err := Compile(context.Background(), "inc", toSource(sources), []string{"main.c"}, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Module.FuncByName("sum") == nil {
		t.Fatal("sum missing")
	}
	g := res.Module.GlobalByName("ring")
	if g == nil {
		t.Fatal("global ring missing")
	}
	if g.Elem.Size() != 8*4+4 {
		t.Errorf("ring size = %d, want 36", g.Elem.Size())
	}
}

func TestCompileErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"undeclared", `int main() { return x; }`, "undeclared identifier"},
		{"badcall", `void f(int a) {} int main() { f(); return 0; }`, "want 1"},
		{"badfield", `struct S { int a; }; int main() { struct S s; return s.b; }`, `no field "b"`},
		{"badannot", "int main()\n/***SafeFlow Annotation assume(bogus(x)) /***/\n{ return 0; }", "unknown assume fact"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(context.Background(), tc.name, cpp.MapSource{"main.c": tc.src}, []string{"main.c"}, Options{})
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func toSource(m map[string]string) mapSource { return mapSource(m) }

type mapSource map[string]string

func (m mapSource) ReadFile(name string) (string, error) {
	if s, ok := m[name]; ok {
		return s, nil
	}
	return "", errNotFound(name)
}

type errNotFound string

func (e errNotFound) Error() string { return "not found: " + string(e) }
