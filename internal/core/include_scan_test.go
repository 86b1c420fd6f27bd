package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"safeflow/internal/cpp"
)

// The whole-program source scans — the line counts, the annotation
// counts, the safeflow:ignore directives — read the files the
// preprocessor read (frontend.RecoverResult.Files), and the state tier's
// tag is the module key, which covers exactly the preprocessed text.

// includeSpellings are directive spellings the preprocessor honours for
// one quoted include; the whole-program source scans must follow each.
var includeSpellings = []string{
	`#include "h.h"`,
	`# include "h.h"`,
	`  #	include "h.h"`,
	`#include"h.h"`,
}

// includeSystem is a two-file system whose header carries two counted
// lines and a safeflow:ignore directive naming a rule no policy defines.
func includeSystem(directive, header string) map[string]string {
	return map[string]string{
		"main.c": directive + "\nint main(void)\n{\n    return helper(1);\n}\n",
		"h.h":    header,
	}
}

const includeHeader = "// safeflow:ignore no-such-rule reviewed\nint helper(int x);\n"

// Every spelling of the include gives the same line counts, the same
// suppression directives (the header's unknown rule is diagnosed) and a
// state tier tag that changes with the header's text, from a whole
// analysis and from a session.
func TestIncludeSpellingsScanned(t *testing.T) {
	ctx := context.Background()
	cFiles := []string{"main.c"}
	const wantLOC = 7
	for _, d := range includeSpellings {
		src := includeSystem(d, includeHeader)
		edited := includeSystem(d, includeHeader+"int other(void);\n")
		if sourcesTag("inc", src, cFiles, Options{}) == sourcesTag("inc", edited, cFiles, Options{}) {
			t.Errorf("%q: the state tier tag does not cover the header", d)
		}

		rep, err := AnalyzeSources(ctx, "inc", cpp.MapSource(src), cFiles, Options{})
		if err != nil {
			t.Fatalf("%q: %v", d, err)
		}
		if rep.LinesOfCode != wantLOC || len(rep.SuppressionIssues) != 1 || rep.SuppressionIssues[0].File != "h.h" {
			t.Errorf("%q: analysis counts %d lines and suppression issues %v, want %d and the header's one",
				d, rep.LinesOfCode, rep.SuppressionIssues, wantLOC)
		}
		s, open, err := OpenSession(ctx, "inc", src, cFiles, Options{})
		if err != nil {
			t.Fatalf("%q: open: %v", d, err)
		}
		up, _, err := s.Update(ctx, map[string]string{"h.h": edited["h.h"]})
		if err != nil {
			t.Fatalf("%q: update: %v", d, err)
		}
		s.Close()
		if open.LinesOfCode != wantLOC || len(open.SuppressionIssues) != 1 || up.LinesOfCode != wantLOC+1 {
			t.Errorf("%q: session counts %d then %d lines, %d suppression issues; want %d, %d, 1",
				d, open.LinesOfCode, up.LinesOfCode, len(open.SuppressionIssues), wantLOC, wantLOC+1)
		}
	}
}

// A header the preprocessor does not read adds nothing to the program:
// one in the group of an "#if 0", of an untaken #ifdef or #ifndef, or in
// the #else of a taken #ifdef leaves the line counts, the suppression
// scan and the state tier tag to main.c alone; one a -D define switches
// on counts like a plain include. Checked in a whole analysis, in a
// session's open, in an update that edits the header, and in an update
// that replaces the conditional by a plain include.
func TestIncludeInIfZeroNotScanned(t *testing.T) {
	ctx := context.Background()
	cFiles := []string{"main.c"}
	for _, tc := range []struct {
		name      string
		directive string
		defines   map[string]string
		read      bool
	}{
		{"#if 0", "#if 0\n#include \"h.h\"\n#endif", nil, false},
		{"untaken #ifdef", "#ifdef DEBUG\n#include \"h.h\"\n#endif", nil, false},
		{"untaken #ifndef", "#define NO_H\n#ifndef NO_H\n#include \"h.h\"\n#endif", nil, false},
		{"#else of a taken #ifdef", "#define DEBUG\n#ifdef DEBUG\n#else\n#include \"h.h\"\n#endif", nil, false},
		{"#ifdef taken by -D", "#ifdef DEBUG\n#include \"h.h\"\n#endif", map[string]string{"DEBUG": "1"}, true},
	} {
		opts := Options{Defines: tc.defines}
		src := includeSystem(tc.directive, includeHeader)
		edited := includeSystem(tc.directive, includeHeader+"int other(void);\n")
		// main.c's own lines, plus the header's two when it is read.
		wantLOC := nonBlank(src["main.c"])
		wantIssues := 0
		if tc.read {
			wantLOC += 2
			wantIssues = 1
		}
		editedLOC := wantLOC
		if tc.read {
			editedLOC++
		}

		if same := sourcesTag("inc", src, cFiles, opts) == sourcesTag("inc", edited, cFiles, opts); same == tc.read {
			t.Errorf("%s: editing the header leaves the state tier tag unchanged = %v, want %v", tc.name, same, !tc.read)
		}
		rep, err := AnalyzeSources(ctx, "inc", cpp.MapSource(src), cFiles, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.LinesOfCode != wantLOC || len(rep.SuppressionIssues) != wantIssues || rep.Clean() == tc.read {
			t.Errorf("%s: analysis counts %d lines and %d suppression issues, clean %v; want %d, %d, %v",
				tc.name, rep.LinesOfCode, len(rep.SuppressionIssues), rep.Clean(), wantLOC, wantIssues, !tc.read)
		}

		s, open, err := OpenSession(ctx, "inc", src, cFiles, opts)
		if err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
		up, _, err := s.Update(ctx, map[string]string{"h.h": edited["h.h"]})
		if err != nil {
			t.Fatalf("%s: update: %v", tc.name, err)
		}
		plain := includeSystem(`#include "h.h"`, edited["h.h"])
		unguarded, _, err := s.Update(ctx, map[string]string{"main.c": plain["main.c"]})
		s.Close()
		if err != nil {
			t.Fatalf("%s: update: %v", tc.name, err)
		}
		if open.LinesOfCode != wantLOC || len(open.SuppressionIssues) != wantIssues || up.LinesOfCode != editedLOC {
			t.Errorf("%s: session counts %d then %d lines, %d suppression issues; want %d, %d, %d",
				tc.name, open.LinesOfCode, up.LinesOfCode, len(open.SuppressionIssues), wantLOC, editedLOC, wantIssues)
		}
		if want := nonBlank(plain["main.c"]) + 3; unguarded.LinesOfCode != want || len(unguarded.SuppressionIssues) != 1 {
			t.Errorf("%s: after the conditional went, session counts %d lines and %d suppression issues; want %d and 1",
				tc.name, unguarded.LinesOfCode, len(unguarded.SuppressionIssues), want)
		}
	}
}

// The scans read only what the preprocessor reads as a quoted include:
// not an angle-bracket include, a macro, a comment, a group of "#if 0"
// (nested conditionals included) or an untaken branch; but the #else of
// an "#if 0", "#if 1" and a taken #ifdef or #ifndef. Each header carries
// a directive with an unknown rule, so the suppression issues name the
// headers scanned.
func TestScansSkipOtherDirectives(t *testing.T) {
	headers := map[string]string{}
	for _, h := range []string{"a.h", "b.h", "c.h"} {
		headers[h] = "// safeflow:ignore no-such-rule reviewed\nint " + h[:1] + "_decl;\n"
	}
	for _, c := range []struct {
		text    string
		defines map[string]string
		want    []string
	}{
		{"#include <stdio.h>\n#define X \"h.h\"\nint x; // #include \"h.h\"\n#include \"a.h\"\n", nil, []string{"a.h"}},
		{"#if 0\n#include \"a.h\"\n#endif\n#include \"b.h\"\n", nil, []string{"b.h"}},
		{"# if  0\n#ifdef X\n#include \"a.h\"\n#else\n#include \"b.h\"\n#endif\n#endif\n", nil, nil},
		{"#if 0\n#include \"a.h\"\n#else\n#include \"b.h\"\n#endif\n", nil, []string{"b.h"}},
		{"#ifdef X\n#if 0\n#include \"a.h\"\n#endif\n#include \"b.h\"\n#else\n#include \"c.h\"\n#endif\n", nil, []string{"c.h"}},
		{"#ifdef X\n#if 0\n#include \"a.h\"\n#endif\n#include \"b.h\"\n#else\n#include \"c.h\"\n#endif\n", map[string]string{"X": "1"}, []string{"b.h"}},
		{"#ifndef G\n#include \"a.h\"\n#endif\n#if 1\n#include \"b.h\"\n#endif\n", nil, []string{"a.h", "b.h"}},
		{"#ifndef G\n#include \"a.h\"\n#endif\n#if 1\n#include \"b.h\"\n#endif\n", map[string]string{"G": ""}, []string{"b.h"}},
	} {
		src := cpp.MapSource{"main.c": c.text + "int main(void)\n{\n    return 0;\n}\n"}
		for h, text := range headers {
			src[h] = text
		}
		rep, err := AnalyzeSources(context.Background(), "inc", src, []string{"main.c"}, Options{Defines: c.defines})
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		var got []string
		for _, si := range rep.SuppressionIssues {
			got = append(got, si.File)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%q (defines %v): scanned headers %q, want %q", c.text, c.defines, got, c.want)
		}
		if want := nonBlank(src["main.c"]) + 2*len(c.want); rep.LinesOfCode != want {
			t.Errorf("%q (defines %v): %d counted lines, want %d", c.text, c.defines, rep.LinesOfCode, want)
		}
	}
}

// nonBlank counts text's non-blank lines.
func nonBlank(text string) int {
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// TestScanFileAllocFree: a file without a safeflow:ignore directive, the
// common case, scans with no allocation, and its counts are the lines'.
func TestScanFileAllocFree(t *testing.T) {
	src := strings.Repeat("int x;\n\n   \n/***SafeFlow Annotation assume(core(p, 0, 8)) /***/\ndouble y; // note\n", 100)
	var fs fileScan
	if allocs := testing.AllocsPerRun(100, func() { fs = scanFile("a.c", src) }); allocs != 0 {
		t.Errorf("%v allocations per scan, want 0", allocs)
	}
	if fs.loc != 300 || fs.annots != 100 || fs.sups != nil {
		t.Errorf("scan: %d lines, %d annotations, %d directives; want 300, 100, 0", fs.loc, fs.annots, len(fs.sups))
	}
}

// TestScanFileCountsLines: an annotation line counts once however many
// annotations it holds, blank and whitespace-only lines do not count,
// and a last line without a newline does.
func TestScanFileCountsLines(t *testing.T) {
	for _, tc := range []struct {
		text        string
		loc, annots int
	}{
		{"", 0, 0},
		{"\n\n \t\n", 0, 0},
		{"int x;", 1, 0},
		{"/***SafeFlow Annotation a /***/ /***SafeFlow Annotation b /***/\nint x;\n", 2, 1},
		{"int x;\n/***SafeFlow Annotation a /***/", 2, 1},
		{"/***SafeFlow Annotation a /***/\n\n/***SafeFlow Annotation b /***/\n", 2, 2},
		{" \n x\n", 1, 0},
	} {
		if fs := scanFile("a.c", tc.text); fs.loc != tc.loc || fs.annots != tc.annots {
			t.Errorf("%q: %d lines, %d annotations; want %d, %d", tc.text, fs.loc, fs.annots, tc.loc, tc.annots)
		}
	}
}
