// Package faultinject is the fault-injection harness for SafeFlow's
// graceful-degradation mode: seeded, deterministic injectors that plant
// front-end failures (lex, parse, type-check) into generated corpus
// systems, plus a scenario runner that drives the full recovering
// pipeline over the mutated sources and captures the degraded report in
// both rendered forms.
//
// The injectors are intentionally source-level: a fault is a concrete
// edit a build system could produce (a truncated file, a bad merge, an
// ill-typed stub), not a mocked error value, so the whole recovery path
// — lexer error accumulation, parser resynchronization, the type
// checker's drop-and-retry loop, conservative missing-definition taint —
// is exercised end to end. Cache corruption, worker panics, and
// cancellation are injected through the pipeline's existing test seams
// (frontend.CorruptParseCache, vfg.CorruptStateStore,
// core.SetPhaseHook) by the invariant tests in this package.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
)

// Kind is one class of injected front-end failure.
type Kind int

const (
	// KindLex appends an unterminated string literal and an illegal
	// character, producing multiple lexical errors in one unit.
	KindLex Kind = iota
	// KindParse appends a malformed declaration the parser cannot
	// resynchronize into a complete file.
	KindParse
	// KindTypecheck appends a definition referencing an undeclared
	// identifier, failing the unit in the type checker after a clean
	// parse.
	KindTypecheck
	numKinds
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case KindLex:
		return "lex"
	case KindParse:
		return "parse"
	case KindTypecheck:
		return "typecheck"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// payload is the source text appended to the faulted unit.
func (k Kind) payload() string {
	switch k {
	case KindLex:
		return "\nchar *__fi_lex = \"unterminated;\nint __fi_lex2 = @;\n"
	case KindParse:
		return "\nint __fi_parse( {\n"
	default:
		return "\ndouble __fi_type() { return __fi_undeclared; }\n"
	}
}

// Fault records one planted fault.
type Fault struct {
	Unit string
	Kind Kind
}

// String renders the fault as "kind(unit)".
func (f Fault) String() string { return fmt.Sprintf("%s(%s)", f.Kind, f.Unit) }

// Mutate returns a copy of sources with n seeded faults planted, each in
// a distinct unit drawn from eligible (n is clamped to len(eligible)).
// The same (seed, sources, eligible, n) always produces the same
// mutation, and the returned faults are sorted by unit name so harness
// output is deterministic. The input map is not modified.
func Mutate(seed int64, sources map[string]string, eligible []string, n int) (map[string]string, []Fault) {
	out := make(map[string]string, len(sources))
	for k, v := range sources {
		out[k] = v
	}
	units := append([]string(nil), eligible...)
	sort.Strings(units)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	if n > len(units) {
		n = len(units)
	}
	var faults []Fault
	for _, u := range units[:n] {
		k := Kind(r.Intn(int(numKinds)))
		out[u] += k.payload()
		faults = append(faults, Fault{Unit: u, Kind: k})
	}
	sort.Slice(faults, func(i, j int) bool { return faults[i].Unit < faults[j].Unit })
	return out, faults
}
