package clex

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"safeflow/internal/ctoken"
)

func kinds(toks []ctoken.Token) []ctoken.Kind {
	out := make([]ctoken.Kind, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Kind)
	}
	return out
}

func lexAll(t *testing.T, src string) []ctoken.Token {
	t.Helper()
	l := New("test.c", src)
	toks := l.All()
	if errs := l.Errors(); len(errs) > 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	return toks
}

func TestKeywordsAndIdents(t *testing.T) {
	toks := lexAll(t, "int foo while whileX _x x1")
	want := []ctoken.Kind{
		ctoken.KwInt, ctoken.IDENT, ctoken.KwWhile, ctoken.IDENT,
		ctoken.IDENT, ctoken.IDENT, ctoken.EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	if toks[3].Text != "whileX" {
		t.Errorf("token 3 text = %q", toks[3].Text)
	}
}

func TestNumberLiterals(t *testing.T) {
	tests := []struct {
		src  string
		kind ctoken.Kind
	}{
		{"0", ctoken.INTLIT},
		{"42", ctoken.INTLIT},
		{"0x7fF", ctoken.INTLIT},
		{"42u", ctoken.INTLIT},
		{"42UL", ctoken.INTLIT},
		{"1.5", ctoken.FLOATLIT},
		{".5", ctoken.FLOATLIT},
		{"2e10", ctoken.FLOATLIT},
		{"2E-3", ctoken.FLOATLIT},
		{"1.5e+2", ctoken.FLOATLIT},
		{"3f", ctoken.FLOATLIT},
		{"1.0F", ctoken.FLOATLIT},
	}
	for _, tc := range tests {
		t.Run(tc.src, func(t *testing.T) {
			toks := lexAll(t, tc.src)
			if toks[0].Kind != tc.kind {
				t.Errorf("%q lexed as %v, want %v", tc.src, toks[0].Kind, tc.kind)
			}
			if toks[0].Text != tc.src {
				t.Errorf("%q text = %q", tc.src, toks[0].Text)
			}
		})
	}
}

func TestDotVsFloat(t *testing.T) {
	toks := lexAll(t, "a.b 1.5 s . f")
	want := []ctoken.Kind{
		ctoken.IDENT, ctoken.DOT, ctoken.IDENT,
		ctoken.FLOATLIT,
		ctoken.IDENT, ctoken.DOT, ctoken.IDENT, ctoken.EOF,
	}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", got, want)
		}
	}
}

func TestOperators(t *testing.T) {
	src := "+ - * / % ++ -- += -= *= /= %= == != <= >= < > << >> <<= >>= && || & | ^ ~ ! = -> . ? : ..."
	want := []ctoken.Kind{
		ctoken.PLUS, ctoken.MINUS, ctoken.STAR, ctoken.SLASH, ctoken.PERCENT,
		ctoken.INC, ctoken.DEC, ctoken.ADDASSIGN, ctoken.SUBASSIGN,
		ctoken.MULASSIGN, ctoken.DIVASSIGN, ctoken.MODASSIGN,
		ctoken.EQ, ctoken.NE, ctoken.LE, ctoken.GE, ctoken.LT, ctoken.GT,
		ctoken.SHL, ctoken.SHR, ctoken.SHLASSIGN, ctoken.SHRASSIGN,
		ctoken.LAND, ctoken.LOR, ctoken.AMP, ctoken.PIPE, ctoken.CARET,
		ctoken.TILDE, ctoken.NOT, ctoken.ASSIGN, ctoken.ARROW, ctoken.DOT,
		ctoken.QUESTION, ctoken.COLON, ctoken.ELLIPSIS, ctoken.EOF,
	}
	got := kinds(lexAll(t, src))
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStringLiterals(t *testing.T) {
	toks := lexAll(t, `"hello\nworld" "a\"b"`)
	if toks[0].Kind != ctoken.STRLIT || toks[0].Text != "hello\nworld" {
		t.Errorf("first string = %q", toks[0].Text)
	}
	if toks[1].Kind != ctoken.STRLIT || toks[1].Text != `a"b` {
		t.Errorf("second string = %q", toks[1].Text)
	}
}

func TestCharLiterals(t *testing.T) {
	toks := lexAll(t, `'a' '\n' '\0'`)
	wantVals := []string{"97", "10", "0"}
	for i, w := range wantVals {
		if toks[i].Kind != ctoken.INTLIT || toks[i].Text != w {
			t.Errorf("char %d = (%v, %q), want (INTLIT, %q)", i, toks[i].Kind, toks[i].Text, w)
		}
	}
}

func TestCommentsSkipped(t *testing.T) {
	src := `
a // line comment with * and /*
b /* block
comment */ c
`
	got := kinds(lexAll(t, src))
	want := []ctoken.Kind{ctoken.IDENT, ctoken.IDENT, ctoken.IDENT, ctoken.EOF}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestAnnotationCapture(t *testing.T) {
	src := `
int x;
/***SafeFlow Annotation assume(core(p, 0, sizeof(T))) /***/
int y;
/* SafeFlow Annotation assert(safe(v)) */
int z;
/* ordinary comment */
`
	toks := lexAll(t, src)
	var annots []ctoken.Token
	for _, tk := range toks {
		if tk.Kind == ctoken.ANNOTATION {
			annots = append(annots, tk)
		}
	}
	if len(annots) != 2 {
		t.Fatalf("annotations = %d, want 2", len(annots))
	}
	if annots[0].Text != "assume(core(p, 0, sizeof(T)))" {
		t.Errorf("annotation 0 body = %q", annots[0].Text)
	}
	if annots[1].Text != "assert(safe(v))" {
		t.Errorf("annotation 1 body = %q", annots[1].Text)
	}
}

func TestLineDirectives(t *testing.T) {
	src := "#line 10 \"orig.c\"\nint x;\nint y;\n"
	toks := lexAll(t, src)
	if toks[0].Pos.File != "orig.c" || toks[0].Pos.Line != 10 {
		t.Errorf("first token at %v, want orig.c:10", toks[0].Pos)
	}
	// y is declared on the next line.
	if toks[3].Pos.Line != 11 {
		t.Errorf("second decl at line %d, want 11", toks[3].Pos.Line)
	}
}

func TestPositions(t *testing.T) {
	toks := lexAll(t, "a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"illegal char", "int @ x;", "illegal character"},
		{"unterminated string", "\"abc\nint x;", "unterminated string"},
		{"unterminated comment", "/* abc", "unterminated block comment"},
		{"unterminated char", "'a", "unterminated character"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			l := New("t.c", tc.src)
			l.All()
			errs := l.Errors()
			if len(errs) == 0 {
				t.Fatalf("expected an error for %q", tc.src)
			}
			if !strings.Contains(errs[0].Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", errs[0], tc.want)
			}
		})
	}
}

// Property: lexing always terminates with EOF and never panics on
// arbitrary printable input.
func TestQuickLexTotal(t *testing.T) {
	f := func(raw []byte) bool {
		// Restrict to printable ASCII plus whitespace so error noise stays
		// meaningful.
		var sb strings.Builder
		for _, b := range raw {
			c := b%95 + 32
			sb.WriteByte(c)
		}
		l := New("q.c", sb.String())
		toks := l.All()
		return len(toks) > 0 && toks[len(toks)-1].Kind == ctoken.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: token texts of idents and numbers concatenate back to
// substrings of the input (no invented characters).
func TestQuickTokensFromInput(t *testing.T) {
	f := func(words []uint16) bool {
		var parts []string
		for _, w := range words {
			parts = append(parts, "x"+strings.Repeat("y", int(w%5)))
		}
		src := strings.Join(parts, " ")
		l := New("q.c", src)
		for _, tok := range l.All() {
			if tok.Kind == ctoken.IDENT && !strings.Contains(src, tok.Text) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sscanfLineDirective is the fmt.Sscanf parse the lexer used before the
// direct one, kept as the reference for what the preprocessor emits.
func sscanfLineDirective(text string) (int, string, bool) {
	var n int
	var f string
	if _, err := fmt.Sscanf(text, "#line %d %q", &n, &f); err == nil {
		return n, f, true
	}
	return 0, "", false
}

// Every directive the preprocessor can emit ("#line %d %q") parses to
// its line and file, as the fmt.Sscanf reference does.
func TestParseLineDirectivePreprocessorForm(t *testing.T) {
	names := []string{"a.c", "dir/gen.h", "d\"q.h", `back\slash.c`, "tab\t.c", "café.c",
		"nul\x00.c", "bad\xff.c", "日本.h", ""}
	for _, line := range []int{0, 1, 17, 123456789, 1 << 40} {
		for _, name := range names {
			text := fmt.Sprintf("#line %d %q", line, name)
			n, f, ok := parseLineDirective(text)
			wn, wf, wok := sscanfLineDirective(text)
			if !ok || n != line || f != name || n != wn || f != wf || !wok {
				t.Errorf("%q: got (%d, %q, %v), want (%d, %q); Sscanf gives (%d, %q, %v)",
					text, n, f, ok, line, name, wn, wf, wok)
			}
		}
	}
}

// The other directive forms the parser accepts or rejects.
func TestParseLineDirectiveForms(t *testing.T) {
	type result struct {
		n  int
		f  string
		ok bool
	}
	cases := map[string]result{
		`# 5 "a.c"`:                        {5, "a.c", true},
		`# 5 "a.c" 1 3`:                    {5, "a.c", true},
		`#5 "a.c"`:                         {5, "a.c", true},
		`# line 5 "a.c"`:                   {5, "a.c", true},
		"#line\t1\t\"a.c\"":                {1, "a.c", true},
		`#line  007  "a.c"`:                {7, "a.c", true},
		`#line 1 "a.c" trailing`:           {1, "a.c", true},
		`#line 1 "a\x41.c"`:                {1, "aA.c", true},
		"#line 1 \"caf\xc3\xa9.c\"":        {1, "café.c", true},
		"#line 1 \"\xff.c\"":               {1, "�.c", true},
		`#line 1 "a\q.c"`:                  {},
		`#line 1 "unterminated`:            {},
		"#line 1 `raw.c`":                  {},
		`#line 1 a.c`:                      {},
		`#line -1 "a.c"`:                   {},
		`#line 1_0 "a.c"`:                  {},
		`#line1 "a.c"`:                     {},
		`#line 1"a.c"`:                     {},
		`#line 99999999999999999999 "a.c"`: {},
		`#line 1`:                          {},
		`#line`:                            {},
		`#`:                                {},
		`#define X 1`:                      {},
		`line 1 "a.c"`:                     {},
	}
	for text, want := range cases {
		n, f, ok := parseLineDirective(text)
		if got := (result{n, f, ok}); got != want {
			t.Errorf("%q: got %+v, want %+v", text, got, want)
		}
	}
}
