package core

import (
	"context"
	"slices"
	"testing"

	"safeflow/internal/cpp"
)

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
// digest that changes with the header's text, from a whole analysis and
// from a session.
func TestIncludeSpellingsScanned(t *testing.T) {
	ctx := context.Background()
	cFiles := []string{"main.c"}
	var wantLOC int
	for i, d := range includeSpellings {
		src := includeSystem(d, includeHeader)
		loc, _, digest := scanSources(cpp.MapSource(src), cFiles)
		if i == 0 {
			wantLOC = loc
		}
		if loc != wantLOC || loc != 7 {
			t.Errorf("%q: %d counted lines, want %d (header lines included)", d, loc, 7)
		}
		edited := includeSystem(d, includeHeader+"int other(void);\n")
		if _, _, d2 := scanSources(cpp.MapSource(edited), cFiles); d2 == digest {
			t.Errorf("%q: the source digest does not cover the header", d)
		}
		if sups := scanSourceSuppressions(cpp.MapSource(src), cFiles); len(sups) != 1 || sups[0].File != "h.h" {
			t.Errorf("%q: suppression directives %+v, want the header's one", d, sups)
		}

		rep, err := AnalyzeSources(ctx, "inc", cpp.MapSource(src), cFiles, Options{})
		if err != nil {
			t.Fatalf("%q: %v", d, err)
		}
		if rep.LinesOfCode != wantLOC || len(rep.SuppressionIssues) != 1 {
			t.Errorf("%q: analysis counts %d lines and %d suppression issues, want %d and 1",
				d, rep.LinesOfCode, len(rep.SuppressionIssues), wantLOC)
		}
		s, open, err := OpenSession(ctx, "inc", src, cFiles, Options{})
		if err != nil {
			t.Fatalf("%q: open: %v", d, err)
		}
		up, _, err := s.Update(ctx, map[string]string{"h.h": includeHeader + "int other(void);\n"})
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

// A line the preprocessor does not read as a quoted include is not
// followed, nor is one in the group of a literal "#if 0" (nested
// conditionals included). Its #else, #ifdef and #ifndef groups and
// "#if 1" are read under some defines, so their includes are followed.
func TestQuotedIncludesSkipsOtherDirectives(t *testing.T) {
	for _, c := range []struct {
		text string
		want []string
	}{
		{"#include <stdio.h>\n#define X \"h.h\"\n#includes \"h.h\"\nint x; // #include \"h.h\"\n#include \"\"\n#include \"a.h\"\n", []string{"a.h"}},
		{"#if 0\n#include \"a.h\"\n#endif\n#include \"b.h\"\n", []string{"b.h"}},
		{"# if  0\n#ifdef X\n#include \"a.h\"\n#else\n#include \"b.h\"\n#endif\n#endif\n", nil},
		{"#if 0\n#include \"a.h\"\n#else\n#include \"b.h\"\n#endif\n", []string{"b.h"}},
		{"#ifdef X\n#if 0\n#include \"a.h\"\n#endif\n#include \"b.h\"\n#else\n#include \"c.h\"\n#endif\n", []string{"b.h", "c.h"}},
		{"#ifndef G\n#include \"a.h\"\n#endif\n#if 1\n#include \"b.h\"\n#endif\n", []string{"a.h", "b.h"}},
		{"#endif\n#else\n#include \"a.h\"\n", []string{"a.h"}},
	} {
		if got := cpp.QuotedIncludes(c.text); !slices.Equal(got, c.want) {
			t.Errorf("QuotedIncludes(%q) = %q, want %q", c.text, got, c.want)
		}
	}
}

// An include inside "#if 0" adds nothing to the program: the line counts,
// the suppression scan and the source digest see main.c alone, in a whole
// analysis and in a session.
func TestIncludeInIfZeroNotScanned(t *testing.T) {
	ctx := context.Background()
	cFiles := []string{"main.c"}
	src := includeSystem("#if 0\n#include \"h.h\"\n#endif", includeHeader)
	const wantLOC = 7 // main.c's lines; h.h is never read

	loc, _, digest := scanSources(cpp.MapSource(src), cFiles)
	if loc != wantLOC {
		t.Errorf("%d counted lines, want %d", loc, wantLOC)
	}
	edited := includeSystem("#if 0\n#include \"h.h\"\n#endif", includeHeader+"int other(void);\n")
	if _, _, d2 := scanSources(cpp.MapSource(edited), cFiles); d2 != digest {
		t.Error("the source digest covers a header the program never reads")
	}
	if sups := scanSourceSuppressions(cpp.MapSource(src), cFiles); len(sups) != 0 {
		t.Errorf("suppression directives %+v, want none", sups)
	}

	rep, err := AnalyzeSources(ctx, "inc", cpp.MapSource(src), cFiles, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LinesOfCode != wantLOC || len(rep.SuppressionIssues) != 0 {
		t.Errorf("analysis counts %d lines and %d suppression issues, want %d and 0",
			rep.LinesOfCode, len(rep.SuppressionIssues), wantLOC)
	}
	s, open, err := OpenSession(ctx, "inc", src, cFiles, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	up, _, err := s.Update(ctx, map[string]string{"h.h": includeHeader + "int other(void);\n"})
	if err != nil {
		t.Fatal(err)
	}
	if open.LinesOfCode != wantLOC || up.LinesOfCode != wantLOC || len(open.SuppressionIssues) != 0 {
		t.Errorf("session counts %d then %d lines, %d suppression issues; want %d, %d, 0",
			open.LinesOfCode, up.LinesOfCode, len(open.SuppressionIssues), wantLOC, wantLOC)
	}
}
