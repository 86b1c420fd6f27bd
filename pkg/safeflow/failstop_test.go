package safeflow_test

// Fail-stop error contract: with Options.Recover off, the first failing
// stage — in the caller's translation-unit order, not name order — stops
// the analysis, and its error text and type are pinned here so a change
// to the front-end driver cannot silently reword or reorder them.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/pkg/safeflow"
)

// errorChain renders the dynamic type of every error on err's Unwrap
// chain, outermost first.
func errorChain(err error) string {
	var types []string
	for ; err != nil; err = errors.Unwrap(err) {
		types = append(types, fmt.Sprintf("%T", err))
	}
	return strings.Join(types, " > ")
}

func TestFailStopErrorText(t *testing.T) {
	const okUnit = "int helper(int x) { return x + 1; }\n"
	tests := []struct {
		name    string
		sources map[string]string
		cFiles  []string
		want    string // err.Error()
		chain   string // errorChain(err)
	}{
		{
			name: "preprocess",
			sources: map[string]string{
				"z.c": okUnit,
				"m.c": "#include \"nothere.h\"\nint m;\n",
				"a.c": "int a = @;\n",
			},
			cFiles: []string{"z.c", "m.c", "a.c"},
			want:   "safeflow: preprocess m.c: m.c:1: cannot include \"nothere.h\": include file \"nothere.h\" not found",
			chain:  "*fmt.wrapError > *errors.errorString",
		},
		{
			name: "lex",
			sources: map[string]string{
				"z.c": okUnit,
				"m.c": "int a = @;\nchar *s = \"unterminated;\n",
				"a.c": "int oops( {\n",
			},
			cFiles: []string{"z.c", "m.c", "a.c"},
			want:   "safeflow: lex m.c: m.c:1:9: illegal character '@'\n\tm.c:2:11: unterminated string literal",
			chain:  "*fmt.wrapError > *errors.errorString",
		},
		{
			name: "parse",
			sources: map[string]string{
				"z.c": okUnit,
				"m.c": "int f() { return 1 + ; }\nint g() { return ( ; }\n",
				"a.c": "#include \"nothere.h\"\n",
			},
			cFiles: []string{"z.c", "m.c", "a.c"},
			want:   "safeflow: parse m.c: m.c:1:22: expected expression, found ;\n\tm.c:1:24: expected ;, found }\n\tm.c:2:20: expected expression, found ;\n\tm.c:2:22: expected ), found }\n\tm.c:2:22: expected ;, found }",
			chain:  "*fmt.wrapError > *errors.errorString",
		},
		{
			// z.c fails in pass 2 (a body), m.c in pass 1 (a declaration):
			// the error lists them per unit in cFiles order.
			name: "typecheck",
			sources: map[string]string{
				"z.c": "int zf() { return missing_symbol; }\n",
				"m.c": "int g;\ndouble g;\nint mf() { return 0; }\n",
				"a.c": okUnit,
			},
			cFiles: []string{"z.c", "m.c", "a.c"},
			want:   "safeflow: typecheck: z.c:1:19: undeclared identifier \"missing_symbol\"\nm.c:2:8: conflicting declarations of global \"g\"",
			chain:  "*fmt.wrapError > *fmt.wrapError > csema.ErrorList",
		},
		{
			// A malformed annotation in a shared header cannot be
			// attributed to one unit.
			name: "lower",
			sources: map[string]string{
				"bad.h": "int hf()\n/***SafeFlow Annotation assume(bogus(x)) /***/\n{ return 0; }\n",
				"z.c":   okUnit,
				"m.c":   "#include \"bad.h\"\nint mf() { return hf(); }\n",
				"a.c":   "int af() { return 0; }\n",
			},
			cFiles: []string{"z.c", "m.c", "a.c"},
			want:   "safeflow: lower: bad.h:2:1: annotation \"assume(bogus(x))\": unknown assume fact \"bogus\"",
			chain:  "*fmt.wrapError > *fmt.wrapError > *errors.errorString",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				rep, err := safeflow.AnalyzeContext(context.Background(), "failstop", tc.sources, tc.cFiles,
					safeflow.Options{Workers: workers, DisableParseCache: true})
				if err == nil {
					t.Fatalf("workers=%d: no error (report %+v)", workers, rep)
				}
				if got := err.Error(); got != tc.want {
					t.Errorf("workers=%d: error text\n got: %q\nwant: %q", workers, got, tc.want)
				}
				if got := errorChain(err); got != tc.chain {
					t.Errorf("workers=%d: error chain\n got: %s\nwant: %s", workers, got, tc.chain)
				}
			}
		})
	}
}

// A panic while compiling is isolated: the system's report carries one
// *InternalError for the front end and the call itself does not fail.
func TestFailStopPanicIsInternalError(t *testing.T) {
	core.SetPhaseHook(func(phase, system string) {
		if phase == "frontend" && system == "panicky" {
			panic("injected frontend crash")
		}
	})
	defer core.SetPhaseHook(nil)
	rep, err := safeflow.AnalyzeContext(context.Background(), "panicky", map[string]string{
		"z.c": "int zf() { return 0; }\n",
		"a.c": "int af() { return 1; }\n",
	}, []string{"z.c", "a.c"}, safeflow.Options{})
	if err != nil {
		t.Fatalf("panic surfaced as an error: %v", err)
	}
	if len(rep.Internal) != 1 {
		t.Fatalf("got %d internal errors, want 1: %v", len(rep.Internal), rep.Internal)
	}
	const want = "internal error in frontend (panicky): injected frontend crash"
	if got := rep.Internal[0].Error(); got != want {
		t.Errorf("internal error text\n got: %q\nwant: %q", got, want)
	}
	var ie *safeflow.InternalError
	if !errors.As(rep.Internal[0], &ie) {
		t.Fatalf("internal error has type %T, want *safeflow.InternalError", rep.Internal[0])
	}
	if rep.Module != nil || rep.Clean() {
		t.Errorf("crashed front end left a module (%v) or a clean verdict", rep.Module != nil)
	}
}
