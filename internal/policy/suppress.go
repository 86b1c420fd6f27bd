package policy

import (
	"strings"
)

// A Suppression is one inline `// safeflow:ignore <rule-id> <reason>`
// directive found in a source file. A directive on a line of its own
// targets the next line; a trailing directive targets its own line.
// Suppressed findings are never dropped silently — they move to the
// report's audit trail with the directive's reason.
type Suppression struct {
	File string
	// Line is the source line the directive targets (the line whose
	// findings it suppresses).
	Line int
	// CommentLine is the line the directive itself appears on.
	CommentLine int
	Rule        string
	Reason      string
}

const ignoreMarker = "safeflow:ignore"

// ScanSuppressions extracts every safeflow:ignore directive from one
// source file. Malformed directives (no rule id after the marker) are
// returned with an empty Rule so the caller can diagnose them instead
// of ignoring them. A file without the marker costs one search and no
// allocation; lines are cut from src in place.
func ScanSuppressions(file, src string) []Suppression {
	if !strings.Contains(src, ignoreMarker) {
		return nil
	}
	var out []Suppression
	for n := 1; src != ""; n++ {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		idx := strings.Index(line, "//")
		if idx < 0 {
			continue
		}
		comment := line[idx+2:]
		m := strings.Index(comment, ignoreMarker)
		if m < 0 {
			continue
		}
		rest := strings.TrimSpace(comment[m+len(ignoreMarker):])
		rule, reason := rest, ""
		if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
			rule, reason = rest[:sp], strings.TrimSpace(rest[sp+1:])
		}
		s := Suppression{
			File:        file,
			CommentLine: n,
			Rule:        rule,
			Reason:      reason,
		}
		if strings.TrimSpace(line[:idx]) == "" {
			// Directive-only line: targets the following line.
			s.Line = n + 1
		} else {
			// Trailing directive: targets its own line.
			s.Line = n
		}
		out = append(out, s)
	}
	return out
}
