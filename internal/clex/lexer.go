// Package clex implements the lexer for SafeFlow's C subset.
//
// Beyond ordinary C tokenization it recognizes SafeFlow annotation
// comments — block comments whose body begins with the marker string
// "SafeFlow Annotation" (the paper writes them as
// "/***SafeFlow Annotation ... /***/") — and emits them as ANNOTATION
// tokens so the parser can attach them to the following declaration or
// statement. All other comments are skipped.
package clex

import (
	"fmt"
	"strconv"
	"strings"

	"safeflow/internal/ctoken"
)

// Marker is the string that distinguishes a SafeFlow annotation comment
// from an ordinary block comment.
const Marker = "SafeFlow Annotation"

// Error is a lexical error at a source position.
type Error struct {
	Pos ctoken.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer tokenizes a single preprocessed source buffer.
//
// Line directives of the form "#line N \"file\"" (emitted by package cpp)
// are honored so positions refer to original files.
type Lexer struct {
	src    string
	file   string
	off    int
	line   int
	col    int
	errors []error
}

// New returns a lexer over src, attributing positions to file.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errors }

func (l *Lexer) errorf(pos ctoken.Pos, format string, args ...any) {
	l.errors = append(l.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() ctoken.Pos {
	return ctoken.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	ch := l.src[l.off]
	l.off++
	if ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return ch
}

// All lexes the entire buffer, always ending with an EOF token.
func (l *Lexer) All() []ctoken.Token {
	// C text averages a little over four bytes per token.
	toks := make([]ctoken.Token, 0, (len(l.src)-l.off)/4+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == ctoken.EOF {
			return toks
		}
	}
}

// Next returns the next token.
func (l *Lexer) Next() ctoken.Token {
	for {
		l.skipSpace()
		if l.off >= len(l.src) {
			return ctoken.Token{Kind: ctoken.EOF, Pos: l.pos()}
		}
		start := l.pos()
		ch := l.peek()

		switch {
		case ch == '#':
			l.lineDirective()
			continue
		case isIdentStart(ch):
			return l.ident(start)
		case isDigit(ch) || (ch == '.' && isDigit(l.peekAt(1))):
			return l.number(start)
		case ch == '"':
			return l.stringLit(start)
		case ch == '\'':
			return l.charLit(start)
		case ch == '/' && l.peekAt(1) == '/':
			l.skipLineComment()
			continue
		case ch == '/' && l.peekAt(1) == '*':
			if tok, isAnnot := l.blockComment(start); isAnnot {
				return tok
			}
			continue
		default:
			return l.operator(start)
		}
	}
}

func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		switch l.peek() {
		case ' ', '\t', '\r', '\n', '\v', '\f':
			l.advance()
		default:
			return
		}
	}
}

// lineDirective consumes "#line N \"file\"" or "# N \"file\"" directives
// emitted by the preprocessor, updating the position bookkeeping. Any other
// '#'-line is consumed and reported as an error (the preprocessor should
// have removed it).
func (l *Lexer) lineDirective() {
	pos := l.pos()
	lineStart := l.off
	for l.off < len(l.src) && l.peek() != '\n' {
		l.advance()
	}
	text := l.src[lineStart:l.off]
	n, f, ok := parseLineDirective(text)
	if !ok {
		l.errorf(pos, "unexpected preprocessor directive %q (input not preprocessed?)", text)
		return
	}
	l.line = n
	l.col = 1
	l.file = f
	if l.off < len(l.src) {
		l.off++ // consume the newline without advancing l.line past n
	}
}

// parseLineDirective parses "#line N \"file\"" or "# N \"file\"": '#',
// optionally "line", blanks, decimal digits, blanks and a Go-quoted file
// name (the preprocessor writes it with %q). Text after the name, such as
// a line marker's flags, is ignored.
func parseLineDirective(text string) (n int, f string, ok bool) {
	rest, found := strings.CutPrefix(text, "#")
	if !found {
		return 0, "", false
	}
	rest, _ = cutBlanks(rest)
	if after, found := strings.CutPrefix(rest, "line"); found {
		if rest, found = cutBlanks(after); !found {
			return 0, "", false
		}
	}
	digits := 0
	for digits < len(rest) && isDigit(rest[digits]) {
		digits++
	}
	quoted, found := cutBlanks(rest[digits:])
	end := quotedEnd(quoted)
	if digits == 0 || !found || end == 0 {
		return 0, "", false
	}
	num, err := strconv.Atoi(rest[:digits])
	if err != nil {
		return 0, "", false
	}
	name, err := strconv.Unquote(quoted[:end])
	if err != nil {
		return 0, "", false
	}
	// Unquote may return a slice of text; positions outlive the buffer
	// (caches keep them), so copy the name out.
	return num, strings.Clone(name), true
}

// cutBlanks removes leading spaces and tabs from s and reports whether
// there were any.
func cutBlanks(s string) (string, bool) {
	t := strings.TrimLeft(s, " \t")
	return t, len(t) < len(s)
}

// quotedEnd returns the length of the double-quoted string at the start
// of s, or 0 when s does not start with a terminated one.
func quotedEnd(s string) int {
	if s == "" || s[0] != '"' {
		return 0
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return 0
}

func (l *Lexer) ident(start ctoken.Pos) ctoken.Token {
	begin := l.off
	for l.off < len(l.src) && isIdentPart(l.peek()) {
		l.advance()
	}
	text := l.src[begin:l.off]
	if kw, ok := ctoken.Keywords[text]; ok {
		return ctoken.Token{Kind: kw, Text: text, Pos: start}
	}
	return ctoken.Token{Kind: ctoken.IDENT, Text: text, Pos: start}
}

func (l *Lexer) number(start ctoken.Pos) ctoken.Token {
	begin := l.off
	isFloat := false
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			next := l.peekAt(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peekAt(2))) {
				isFloat = true
				l.advance() // e
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for l.off < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			}
		}
	}
	// Suffixes: u, U, l, L, f, F in any reasonable combination.
	for l.off < len(l.src) {
		switch l.peek() {
		case 'u', 'U', 'l', 'L':
			l.advance()
		case 'f', 'F':
			isFloat = true
			l.advance()
		default:
			goto done
		}
	}
done:
	text := l.src[begin:l.off]
	kind := ctoken.INTLIT
	if isFloat {
		kind = ctoken.FLOATLIT
	}
	return ctoken.Token{Kind: kind, Text: text, Pos: start}
}

func (l *Lexer) stringLit(start ctoken.Pos) ctoken.Token {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.off >= len(l.src) || l.peek() == '\n' {
			l.errorf(start, "unterminated string literal")
			break
		}
		ch := l.advance()
		if ch == '"' {
			break
		}
		if ch == '\\' && l.off < len(l.src) {
			sb.WriteByte(unescape(l.advance()))
			continue
		}
		sb.WriteByte(ch)
	}
	return ctoken.Token{Kind: ctoken.STRLIT, Text: sb.String(), Pos: start}
}

func (l *Lexer) charLit(start ctoken.Pos) ctoken.Token {
	l.advance() // opening quote
	var val byte
	if l.off < len(l.src) {
		ch := l.advance()
		if ch == '\\' && l.off < len(l.src) {
			val = unescape(l.advance())
		} else {
			val = ch
		}
	}
	if l.off < len(l.src) && l.peek() == '\'' {
		l.advance()
	} else {
		l.errorf(start, "unterminated character literal")
	}
	return ctoken.Token{Kind: ctoken.INTLIT, Text: fmt.Sprintf("%d", val), Pos: start}
}

func unescape(ch byte) byte {
	switch ch {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	default:
		return ch
	}
}

func (l *Lexer) skipLineComment() {
	for l.off < len(l.src) && l.peek() != '\n' {
		l.advance()
	}
}

// blockComment consumes a /* ... */ comment. If the comment body (after
// stripping leading '*'s and whitespace) begins with Marker, it is returned
// as an ANNOTATION token whose Text is the body following the marker. The
// paper's closing sequence "/***/" is handled naturally: the comment ends
// at the first "*/".
func (l *Lexer) blockComment(start ctoken.Pos) (ctoken.Token, bool) {
	l.advance() // '/'
	l.advance() // '*'
	begin := l.off
	for {
		if l.off+1 >= len(l.src) {
			l.errorf(start, "unterminated block comment")
			l.off = len(l.src)
			return ctoken.Token{}, false
		}
		if l.peek() == '*' && l.peekAt(1) == '/' {
			break
		}
		l.advance()
	}
	body := l.src[begin:l.off]
	l.advance() // '*'
	l.advance() // '/'

	trimmed := strings.TrimLeft(body, "* \t\r\n")
	if rest, ok := strings.CutPrefix(trimmed, Marker); ok {
		// Strip a trailing "/**" left by the paper's "/***/" terminator
		// convention, plus decoration.
		rest = strings.TrimRight(rest, "* \t\r\n/")
		rest = strings.TrimSpace(rest)
		return ctoken.Token{Kind: ctoken.ANNOTATION, Text: rest, Pos: start}, true
	}
	return ctoken.Token{}, false
}

func (l *Lexer) operator(start ctoken.Pos) ctoken.Token {
	two := func(k ctoken.Kind, text string) ctoken.Token {
		l.advance()
		l.advance()
		return ctoken.Token{Kind: k, Text: text, Pos: start}
	}
	three := func(k ctoken.Kind, text string) ctoken.Token {
		l.advance()
		l.advance()
		l.advance()
		return ctoken.Token{Kind: k, Text: text, Pos: start}
	}
	one := func(k ctoken.Kind) ctoken.Token {
		ch := l.advance()
		return ctoken.Token{Kind: k, Text: string(ch), Pos: start}
	}

	a, b, c := l.peek(), l.peekAt(1), l.peekAt(2)
	switch a {
	case '(':
		return one(ctoken.LPAREN)
	case ')':
		return one(ctoken.RPAREN)
	case '{':
		return one(ctoken.LBRACE)
	case '}':
		return one(ctoken.RBRACE)
	case '[':
		return one(ctoken.LBRACKET)
	case ']':
		return one(ctoken.RBRACKET)
	case ',':
		return one(ctoken.COMMA)
	case ';':
		return one(ctoken.SEMI)
	case ':':
		return one(ctoken.COLON)
	case '?':
		return one(ctoken.QUESTION)
	case '~':
		return one(ctoken.TILDE)
	case '.':
		if b == '.' && c == '.' {
			return three(ctoken.ELLIPSIS, "...")
		}
		return one(ctoken.DOT)
	case '+':
		switch b {
		case '+':
			return two(ctoken.INC, "++")
		case '=':
			return two(ctoken.ADDASSIGN, "+=")
		}
		return one(ctoken.PLUS)
	case '-':
		switch b {
		case '-':
			return two(ctoken.DEC, "--")
		case '=':
			return two(ctoken.SUBASSIGN, "-=")
		case '>':
			return two(ctoken.ARROW, "->")
		}
		return one(ctoken.MINUS)
	case '*':
		if b == '=' {
			return two(ctoken.MULASSIGN, "*=")
		}
		return one(ctoken.STAR)
	case '/':
		if b == '=' {
			return two(ctoken.DIVASSIGN, "/=")
		}
		return one(ctoken.SLASH)
	case '%':
		if b == '=' {
			return two(ctoken.MODASSIGN, "%=")
		}
		return one(ctoken.PERCENT)
	case '&':
		switch b {
		case '&':
			return two(ctoken.LAND, "&&")
		case '=':
			return two(ctoken.ANDASSIGN, "&=")
		}
		return one(ctoken.AMP)
	case '|':
		switch b {
		case '|':
			return two(ctoken.LOR, "||")
		case '=':
			return two(ctoken.ORASSIGN, "|=")
		}
		return one(ctoken.PIPE)
	case '^':
		if b == '=' {
			return two(ctoken.XORASSIGN, "^=")
		}
		return one(ctoken.CARET)
	case '!':
		if b == '=' {
			return two(ctoken.NE, "!=")
		}
		return one(ctoken.NOT)
	case '=':
		if b == '=' {
			return two(ctoken.EQ, "==")
		}
		return one(ctoken.ASSIGN)
	case '<':
		switch b {
		case '<':
			if c == '=' {
				return three(ctoken.SHLASSIGN, "<<=")
			}
			return two(ctoken.SHL, "<<")
		case '=':
			return two(ctoken.LE, "<=")
		}
		return one(ctoken.LT)
	case '>':
		switch b {
		case '>':
			if c == '=' {
				return three(ctoken.SHRASSIGN, ">>=")
			}
			return two(ctoken.SHR, ">>")
		case '=':
			return two(ctoken.GE, ">=")
		}
		return one(ctoken.GT)
	default:
		pos := l.pos()
		ch := l.advance()
		l.errorf(pos, "illegal character %q", ch)
		return ctoken.Token{Kind: ctoken.ILLEGAL, Text: string(ch), Pos: start}
	}
}

func isIdentStart(ch byte) bool {
	return ch == '_' || ('a' <= ch && ch <= 'z') || ('A' <= ch && ch <= 'Z')
}

func isIdentPart(ch byte) bool { return isIdentStart(ch) || isDigit(ch) }

func isDigit(ch byte) bool { return '0' <= ch && ch <= '9' }

func isHexDigit(ch byte) bool {
	return isDigit(ch) || ('a' <= ch && ch <= 'f') || ('A' <= ch && ch <= 'F')
}
