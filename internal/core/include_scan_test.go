package core

import (
	"context"
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
// followed.
func TestQuotedIncludesSkipsOtherDirectives(t *testing.T) {
	text := "#include <stdio.h>\n#define X \"h.h\"\n#includes \"h.h\"\nint x; // #include \"h.h\"\n#include \"\"\n#include \"a.h\"\n"
	if got := quotedIncludes(text); len(got) != 1 || got[0] != "a.h" {
		t.Errorf("quotedIncludes = %q, want [a.h]", got)
	}
}
