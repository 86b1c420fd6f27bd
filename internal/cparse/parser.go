// Package cparse implements a recursive-descent parser for SafeFlow's C
// subset, producing cast trees.
//
// The parser performs the classic "lexer hack" internally: it tracks
// typedef names declared so far so that declarations can be distinguished
// from expressions. SafeFlow annotation tokens are attached to the nearest
// following function definition or statement; trailing annotations at the
// end of a block (the paper places shmvar/noncore post-conditions at the
// end of initializing functions) are attached to an empty statement.
package cparse

import (
	"fmt"
	"strconv"
	"strings"

	"safeflow/internal/cast"
	"safeflow/internal/ctoken"
)

// Error is a parse error at a position.
type Error struct {
	Pos ctoken.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a list of parse errors implementing error.
type ErrorList []*Error

// Error implements the error interface.
func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	var sb strings.Builder
	for i, e := range l {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(e.Error())
	}
	return sb.String()
}

// Parser parses a token stream into a cast.File.
type Parser struct {
	toks     []ctoken.Token
	pos      int
	typedefs map[string]bool
	// ownTypedefs is set once typedefs is the parser's own copy; until
	// then it may be a caller's set, which the parser never writes.
	ownTypedefs bool
	errs        ErrorList
	fileName    string
}

// New returns a parser over the given tokens (which must end with EOF).
func New(fileName string, toks []ctoken.Token) *Parser {
	return &Parser{toks: toks, fileName: fileName}
}

// maxErrors bounds error cascades.
const maxErrors = 50

// ParseFile parses the whole translation unit.
func (p *Parser) ParseFile() (*cast.File, error) {
	decls, _, errs := ParseDecls(p.toks, nil)
	f := &cast.File{Name: p.fileName, Decls: decls}
	if len(errs) > 0 {
		return f, errs
	}
	return f, nil
}

// ParseDecls parses toks (which must end with EOF) as a sequence of
// external declarations, with the typedef names in typedefs already in
// scope. typedefs is only read, so it may be shared; nil is the empty
// set. It returns the declarations, the typedef names in scope at the
// end — typedefs itself when toks declares no new one — and the errors.
//
// The typedef-name set is the parser's only state between external
// declarations, and EOF ends no declaration without an error, so
// parsing a buffer in pieces that each parse cleanly, threading the set
// from one piece to the next, gives the declarations of a whole-buffer
// parse.
func ParseDecls(toks []ctoken.Token, typedefs map[string]bool) ([]cast.Decl, map[string]bool, ErrorList) {
	p := &Parser{toks: toks, typedefs: typedefs}
	var decls []cast.Decl
	for p.tok().Kind != ctoken.EOF && len(p.errs) < maxErrors {
		decls = append(decls, p.parseExternalDecl()...)
	}
	return decls, p.typedefs, p.errs
}

// addTypedef declares a typedef name, copying a borrowed set on its
// first new name.
func (p *Parser) addTypedef(name string) {
	if p.typedefs[name] {
		return
	}
	if !p.ownTypedefs {
		own := make(map[string]bool, len(p.typedefs)+1)
		for n := range p.typedefs {
			own[n] = true
		}
		p.typedefs, p.ownTypedefs = own, true
	}
	p.typedefs[name] = true
}

func (p *Parser) tok() ctoken.Token { return p.toks[p.pos] }

func (p *Parser) peek(n int) ctoken.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() ctoken.Token {
	t := p.toks[p.pos]
	if t.Kind != ctoken.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(pos ctoken.Pos, format string, args ...any) {
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (p *Parser) expect(k ctoken.Kind) ctoken.Token {
	t := p.tok()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		return ctoken.Token{Kind: k, Pos: t.Pos}
	}
	return p.next()
}

func (p *Parser) accept(k ctoken.Kind) bool {
	if p.tok().Kind == k {
		p.next()
		return true
	}
	return false
}

// sync skips tokens until a likely declaration/statement boundary.
func (p *Parser) sync() {
	depth := 0
	for {
		switch p.tok().Kind {
		case ctoken.EOF:
			return
		case ctoken.SEMI:
			p.next()
			if depth == 0 {
				return
			}
		case ctoken.LBRACE:
			depth++
			p.next()
		case ctoken.RBRACE:
			p.next()
			if depth == 0 {
				return
			}
			depth--
			if depth == 0 {
				return
			}
		default:
			p.next()
		}
	}
}

// ---------------------------------------------------------------------------
// Declarations

// startsTypeSpec reports whether the current token begins a type specifier.
func (p *Parser) startsTypeSpec() bool {
	switch p.tok().Kind {
	case ctoken.KwVoid, ctoken.KwChar, ctoken.KwShort, ctoken.KwInt, ctoken.KwLong,
		ctoken.KwFloat, ctoken.KwDouble, ctoken.KwSigned, ctoken.KwUnsigned,
		ctoken.KwStruct, ctoken.KwUnion, ctoken.KwEnum,
		ctoken.KwConst, ctoken.KwVolatile:
		return true
	case ctoken.IDENT:
		return p.typedefs[p.tok().Text]
	default:
		return false
	}
}

func (p *Parser) startsDecl() bool {
	switch p.tok().Kind {
	case ctoken.KwTypedef, ctoken.KwExtern, ctoken.KwStatic:
		return true
	}
	return p.startsTypeSpec()
}

// parseExternalDecl parses one top-level declaration; may return several
// cast.Decl values (comma-separated declarators) or attach annotations.
func (p *Parser) parseExternalDecl() []cast.Decl {
	var annots []cast.Annotation
	for p.tok().Kind == ctoken.ANNOTATION {
		t := p.next()
		annots = append(annots, cast.Annotation{AtPos: t.Pos, Body: t.Text})
	}

	if !p.startsDecl() {
		t := p.tok()
		p.errorf(t.Pos, "expected declaration, found %s", t)
		p.sync()
		return nil
	}

	storage, base := p.parseDeclSpecifiers()

	// Standalone record/enum definition: "struct S { ... };".
	if p.tok().Kind == ctoken.SEMI {
		p.next()
		switch bt := base.(type) {
		case *cast.StructType, *cast.EnumType:
			return []cast.Decl{&cast.RecordDecl{Type: bt}}
		default:
			p.errorf(base.Pos(), "declaration declares nothing")
			return nil
		}
	}

	var decls []cast.Decl
	for {
		name, namePos, typ := p.parseDeclarator(base)
		if name == "" {
			p.errorf(namePos, "expected declarator name")
			p.sync()
			return decls
		}

		if storage == cast.StorageTypedef {
			p.addTypedef(name)
			decls = append(decls, &cast.TypedefDecl{NamePos: namePos, Name: name, Type: typ})
			if !p.accept(ctoken.COMMA) {
				p.expect(ctoken.SEMI)
				return decls
			}
			continue
		}

		if ft, ok := typ.(*cast.FuncType); ok {
			// Annotations may also appear between the declarator and the body
			// (Figure 2 places assume(core(...)) there).
			for p.tok().Kind == ctoken.ANNOTATION {
				t := p.next()
				annots = append(annots, cast.Annotation{AtPos: t.Pos, Body: t.Text})
			}
			fd := &cast.FuncDecl{
				NamePos:     namePos,
				Name:        name,
				Type:        ft,
				Storage:     storage,
				Annotations: annots,
			}
			if p.tok().Kind == ctoken.LBRACE {
				fd.Body = p.parseBlock()
				return append(decls, fd)
			}
			decls = append(decls, fd)
			if !p.accept(ctoken.COMMA) {
				p.expect(ctoken.SEMI)
				return decls
			}
			continue
		}

		vd := &cast.VarDecl{NamePos: namePos, Name: name, Type: typ, Storage: storage}
		if p.accept(ctoken.ASSIGN) {
			vd.Init = p.parseInitializer()
		}
		decls = append(decls, vd)
		if !p.accept(ctoken.COMMA) {
			p.expect(ctoken.SEMI)
			return decls
		}
	}
}

// parseDeclSpecifiers parses storage-class and type specifiers, returning
// the storage class and base type.
func (p *Parser) parseDeclSpecifiers() (cast.StorageClass, cast.TypeExpr) {
	storage := cast.StorageNone
	var baseWords []string
	var base cast.TypeExpr
	startPos := p.tok().Pos

	for {
		t := p.tok()
		switch t.Kind {
		case ctoken.KwTypedef:
			storage = cast.StorageTypedef
			p.next()
		case ctoken.KwExtern:
			storage = cast.StorageExtern
			p.next()
		case ctoken.KwStatic:
			storage = cast.StorageStatic
			p.next()
		case ctoken.KwConst, ctoken.KwVolatile:
			p.next() // qualifiers are accepted and dropped
		case ctoken.KwVoid, ctoken.KwChar, ctoken.KwShort, ctoken.KwInt, ctoken.KwLong,
			ctoken.KwFloat, ctoken.KwDouble, ctoken.KwSigned, ctoken.KwUnsigned:
			baseWords = append(baseWords, t.Text)
			p.next()
		case ctoken.KwStruct, ctoken.KwUnion:
			if base != nil || len(baseWords) > 0 {
				goto done
			}
			base = p.parseStructType(t.Kind == ctoken.KwUnion)
		case ctoken.KwEnum:
			if base != nil || len(baseWords) > 0 {
				goto done
			}
			base = p.parseEnumType()
		case ctoken.IDENT:
			if base == nil && len(baseWords) == 0 && p.typedefs[t.Text] {
				base = &cast.NamedType{NamePos: t.Pos, Name: t.Text}
				p.next()
				goto done
			}
			goto done
		default:
			goto done
		}
	}
done:
	if base == nil {
		if len(baseWords) == 0 {
			baseWords = []string{"int"} // implicit int for legacy code
		}
		base = &cast.BaseType{NamePos: startPos, Name: normalizeBase(baseWords)}
	}
	return storage, base
}

// normalizeBase canonicalizes multiword base type names.
func normalizeBase(words []string) string {
	hasUnsigned := false
	var core []string
	for _, w := range words {
		switch w {
		case "unsigned":
			hasUnsigned = true
		case "signed":
			// default
		default:
			core = append(core, w)
		}
	}
	name := strings.Join(core, " ")
	switch name {
	case "":
		name = "int"
	case "long long", "long long int", "long int":
		name = "long"
	case "short int":
		name = "short"
	}
	if hasUnsigned {
		return "unsigned " + name
	}
	return name
}

func (p *Parser) parseStructType(isUnion bool) *cast.StructType {
	kw := p.next() // struct/union
	st := &cast.StructType{Keyword: kw.Pos, IsUnion: isUnion}
	if p.tok().Kind == ctoken.IDENT {
		st.Tag = p.next().Text
	}
	if p.tok().Kind != ctoken.LBRACE {
		if st.Tag == "" {
			p.errorf(kw.Pos, "anonymous struct requires a body")
		}
		return st
	}
	p.next() // {
	st.Defined = true
	for p.tok().Kind != ctoken.RBRACE && p.tok().Kind != ctoken.EOF {
		_, base := p.parseDeclSpecifiers()
		for {
			name, namePos, typ := p.parseDeclarator(base)
			if name == "" {
				p.errorf(namePos, "expected field name")
				p.sync()
				break
			}
			st.Fields = append(st.Fields, &cast.FieldDecl{NamePos: namePos, Name: name, Type: typ})
			if !p.accept(ctoken.COMMA) {
				p.expect(ctoken.SEMI)
				break
			}
		}
	}
	p.expect(ctoken.RBRACE)
	return st
}

func (p *Parser) parseEnumType() *cast.EnumType {
	kw := p.next() // enum
	et := &cast.EnumType{Keyword: kw.Pos}
	if p.tok().Kind == ctoken.IDENT {
		et.Tag = p.next().Text
	}
	if p.tok().Kind != ctoken.LBRACE {
		return et
	}
	p.next()
	et.Defined = true
	for p.tok().Kind != ctoken.RBRACE && p.tok().Kind != ctoken.EOF {
		nameTok := p.expect(ctoken.IDENT)
		m := cast.EnumMember{NamePos: nameTok.Pos, Name: nameTok.Text}
		if p.accept(ctoken.ASSIGN) {
			m.Value = p.parseCondExpr()
		}
		et.Members = append(et.Members, m)
		if !p.accept(ctoken.COMMA) {
			break
		}
	}
	p.expect(ctoken.RBRACE)
	return et
}

// parseDeclarator parses pointer stars, a name, and array/function suffixes
// around the given base type. Abstract declarators (no name) are allowed —
// callers check the returned name when one is required.
func (p *Parser) parseDeclarator(base cast.TypeExpr) (name string, namePos ctoken.Pos, typ cast.TypeExpr) {
	typ = base
	for p.tok().Kind == ctoken.STAR {
		star := p.next()
		for p.tok().Kind == ctoken.KwConst || p.tok().Kind == ctoken.KwVolatile {
			p.next()
		}
		typ = &cast.PointerType{StarPos: star.Pos, Elem: typ}
	}
	namePos = p.tok().Pos
	if p.tok().Kind == ctoken.IDENT {
		t := p.next()
		name = t.Text
		namePos = t.Pos
	}

	// Suffixes: arrays bind to the declared name; a parameter list makes a
	// function type.
	if p.tok().Kind == ctoken.LPAREN {
		lp := p.next()
		params, variadic := p.parseParamList()
		p.expect(ctoken.RPAREN)
		typ = &cast.FuncType{LparenPos: lp.Pos, Result: typ, Params: params, Variadic: variadic}
		return name, namePos, typ
	}

	// Array suffixes: int a[2][3] parses outermost-first; build the type
	// inside-out so Elem nesting matches C semantics.
	var lens []cast.Expr
	var lbracks []ctoken.Pos
	for p.tok().Kind == ctoken.LBRACKET {
		lb := p.next()
		var n cast.Expr
		if p.tok().Kind != ctoken.RBRACKET {
			n = p.parseCondExpr()
		}
		p.expect(ctoken.RBRACKET)
		lens = append(lens, n)
		lbracks = append(lbracks, lb.Pos)
	}
	for i := len(lens) - 1; i >= 0; i-- {
		typ = &cast.ArrayType{LbrackPos: lbracks[i], Elem: typ, Len: lens[i]}
	}
	return name, namePos, typ
}

func (p *Parser) parseParamList() (params []*cast.ParamDecl, variadic bool) {
	if p.tok().Kind == ctoken.RPAREN {
		return nil, false
	}
	// "(void)" means no parameters.
	if p.tok().Kind == ctoken.KwVoid && p.peek(1).Kind == ctoken.RPAREN {
		p.next()
		return nil, false
	}
	for {
		if p.tok().Kind == ctoken.ELLIPSIS {
			p.next()
			return params, true
		}
		_, base := p.parseDeclSpecifiers()
		name, namePos, typ := p.parseDeclarator(base)
		// Array parameters decay to pointers.
		if at, ok := typ.(*cast.ArrayType); ok {
			typ = &cast.PointerType{StarPos: at.LbrackPos, Elem: at.Elem}
		}
		params = append(params, &cast.ParamDecl{NamePos: namePos, Name: name, Type: typ})
		if !p.accept(ctoken.COMMA) {
			return params, false
		}
	}
}

// parseInitializer parses a scalar initializer or a braced initializer
// list. Braced lists are represented as a CallExpr on the pseudo-ident
// "__initlist" so the semantic layer can treat them specially without a
// dedicated node.
func (p *Parser) parseInitializer() cast.Expr {
	if p.tok().Kind != ctoken.LBRACE {
		return p.parseAssignExpr()
	}
	lb := p.next()
	call := &cast.CallExpr{
		LparenPos: lb.Pos,
		Fun:       &cast.Ident{NamePos: lb.Pos, Name: "__initlist"},
	}
	for p.tok().Kind != ctoken.RBRACE && p.tok().Kind != ctoken.EOF {
		call.Args = append(call.Args, p.parseInitializer())
		if !p.accept(ctoken.COMMA) {
			break
		}
	}
	p.expect(ctoken.RBRACE)
	return call
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *cast.BlockStmt {
	lb := p.expect(ctoken.LBRACE)
	blk := &cast.BlockStmt{LbracePos: lb.Pos}
	for p.tok().Kind != ctoken.RBRACE && p.tok().Kind != ctoken.EOF && len(p.errs) < maxErrors {
		blk.List = append(blk.List, p.parseStmt())
	}
	p.expect(ctoken.RBRACE)
	return blk
}

func (p *Parser) parseStmt() cast.Stmt {
	if p.tok().Kind == ctoken.ANNOTATION {
		var annots []cast.Annotation
		for p.tok().Kind == ctoken.ANNOTATION {
			t := p.next()
			annots = append(annots, cast.Annotation{AtPos: t.Pos, Body: t.Text})
		}
		// Trailing annotations before '}' become post-conditions attached to
		// an empty statement.
		if p.tok().Kind == ctoken.RBRACE {
			return &cast.AnnotatedStmt{
				Annotations: annots,
				Stmt:        &cast.EmptyStmt{SemiPos: annots[len(annots)-1].AtPos},
			}
		}
		return &cast.AnnotatedStmt{Annotations: annots, Stmt: p.parseStmt()}
	}

	t := p.tok()
	switch t.Kind {
	case ctoken.LBRACE:
		return p.parseBlock()
	case ctoken.SEMI:
		p.next()
		return &cast.EmptyStmt{SemiPos: t.Pos}
	case ctoken.KwIf:
		return p.parseIf()
	case ctoken.KwWhile:
		return p.parseWhile()
	case ctoken.KwDo:
		return p.parseDoWhile()
	case ctoken.KwFor:
		return p.parseFor()
	case ctoken.KwReturn:
		p.next()
		rs := &cast.ReturnStmt{RetPos: t.Pos}
		if p.tok().Kind != ctoken.SEMI {
			rs.X = p.parseExpr()
		}
		p.expect(ctoken.SEMI)
		return rs
	case ctoken.KwBreak:
		p.next()
		p.expect(ctoken.SEMI)
		return &cast.BreakStmt{KwPos: t.Pos}
	case ctoken.KwContinue:
		p.next()
		p.expect(ctoken.SEMI)
		return &cast.ContinueStmt{KwPos: t.Pos}
	case ctoken.KwSwitch:
		return p.parseSwitch()
	case ctoken.KwGoto:
		p.next()
		name := p.expect(ctoken.IDENT)
		p.expect(ctoken.SEMI)
		return &cast.GotoStmt{KwPos: t.Pos, Name: name.Text}
	case ctoken.IDENT:
		// Label: "name: stmt" — only when followed by a colon and the name
		// is not a typedef (a typedef can start a declaration).
		if p.peek(1).Kind == ctoken.COLON && !p.typedefs[t.Text] {
			p.next()
			p.next()
			return &cast.LabeledStmt{NamePos: t.Pos, Name: t.Text, Stmt: p.parseStmt()}
		}
	}

	if p.startsDecl() {
		return p.parseDeclStmt()
	}

	x := p.parseExpr()
	p.expect(ctoken.SEMI)
	return &cast.ExprStmt{X: x}
}

func (p *Parser) parseDeclStmt() cast.Stmt {
	storage, base := p.parseDeclSpecifiers()
	if storage == cast.StorageTypedef {
		name, namePos, typ := p.parseDeclarator(base)
		p.addTypedef(name)
		p.expect(ctoken.SEMI)
		// Block-scope typedefs are rare; we record them globally, which is a
		// safe over-approximation for this subset.
		_ = namePos
		_ = typ
		return &cast.EmptyStmt{SemiPos: namePos}
	}
	ds := &cast.DeclStmt{}
	for {
		name, namePos, typ := p.parseDeclarator(base)
		if name == "" {
			p.errorf(namePos, "expected variable name in declaration")
			p.sync()
			return ds
		}
		vd := &cast.VarDecl{NamePos: namePos, Name: name, Type: typ, Storage: storage}
		if p.accept(ctoken.ASSIGN) {
			vd.Init = p.parseInitializer()
		}
		ds.Decls = append(ds.Decls, vd)
		if !p.accept(ctoken.COMMA) {
			p.expect(ctoken.SEMI)
			return ds
		}
	}
}

func (p *Parser) parseIf() cast.Stmt {
	kw := p.next()
	p.expect(ctoken.LPAREN)
	cond := p.parseExpr()
	p.expect(ctoken.RPAREN)
	then := p.parseStmt()
	var els cast.Stmt
	if p.accept(ctoken.KwElse) {
		els = p.parseStmt()
	}
	return &cast.IfStmt{IfPos: kw.Pos, Cond: cond, Then: then, Else: els}
}

func (p *Parser) parseWhile() cast.Stmt {
	kw := p.next()
	p.expect(ctoken.LPAREN)
	cond := p.parseExpr()
	p.expect(ctoken.RPAREN)
	body := p.parseStmt()
	return &cast.WhileStmt{WhilePos: kw.Pos, Cond: cond, Body: body}
}

func (p *Parser) parseDoWhile() cast.Stmt {
	kw := p.next()
	body := p.parseStmt()
	p.expect(ctoken.KwWhile)
	p.expect(ctoken.LPAREN)
	cond := p.parseExpr()
	p.expect(ctoken.RPAREN)
	p.expect(ctoken.SEMI)
	return &cast.DoWhileStmt{DoPos: kw.Pos, Body: body, Cond: cond}
}

func (p *Parser) parseFor() cast.Stmt {
	kw := p.next()
	p.expect(ctoken.LPAREN)
	fs := &cast.ForStmt{ForPos: kw.Pos}
	if p.tok().Kind != ctoken.SEMI {
		if p.startsDecl() {
			fs.Init = p.parseDeclStmt() // consumes the semicolon
		} else {
			x := p.parseExpr()
			fs.Init = &cast.ExprStmt{X: x}
			p.expect(ctoken.SEMI)
		}
	} else {
		p.next()
	}
	if p.tok().Kind != ctoken.SEMI {
		fs.Cond = p.parseExpr()
	}
	p.expect(ctoken.SEMI)
	if p.tok().Kind != ctoken.RPAREN {
		fs.Post = p.parseExpr()
	}
	p.expect(ctoken.RPAREN)
	fs.Body = p.parseStmt()
	return fs
}

func (p *Parser) parseSwitch() cast.Stmt {
	kw := p.next()
	p.expect(ctoken.LPAREN)
	tag := p.parseExpr()
	p.expect(ctoken.RPAREN)
	p.expect(ctoken.LBRACE)
	sw := &cast.SwitchStmt{SwitchPos: kw.Pos, Tag: tag}
	var cur *cast.CaseClause
	for p.tok().Kind != ctoken.RBRACE && p.tok().Kind != ctoken.EOF {
		switch p.tok().Kind {
		case ctoken.KwCase:
			c := p.next()
			v := p.parseCondExpr()
			p.expect(ctoken.COLON)
			if cur != nil && len(cur.Body) == 0 {
				// "case 1: case 2:" — merge values into one clause.
				cur.Values = append(cur.Values, v)
				continue
			}
			cur = &cast.CaseClause{CasePos: c.Pos, Values: []cast.Expr{v}}
			sw.Body = append(sw.Body, cur)
		case ctoken.KwDefault:
			c := p.next()
			p.expect(ctoken.COLON)
			cur = &cast.CaseClause{CasePos: c.Pos}
			sw.Body = append(sw.Body, cur)
		default:
			if cur == nil {
				p.errorf(p.tok().Pos, "statement before first case in switch")
				p.sync()
				continue
			}
			cur.Body = append(cur.Body, p.parseStmt())
		}
	}
	p.expect(ctoken.RBRACE)
	for _, c := range sw.Body {
		c.Fallthrough = !endsControlFlow(c.Body)
	}
	return sw
}

func endsControlFlow(body []cast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	switch body[len(body)-1].(type) {
	case *cast.BreakStmt, *cast.ReturnStmt, *cast.ContinueStmt, *cast.GotoStmt:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Expressions

// parseExpr parses a full expression (comma operator is not in the subset,
// so this is assignment level).
func (p *Parser) parseExpr() cast.Expr { return p.parseAssignExpr() }

func (p *Parser) parseAssignExpr() cast.Expr {
	lhs := p.parseCondExpr()
	t := p.tok()
	if t.Kind.IsAssign() {
		p.next()
		rhs := p.parseAssignExpr()
		return &cast.AssignExpr{OpPos: t.Pos, Op: t.Kind, LHS: lhs, RHS: rhs}
	}
	return lhs
}

func (p *Parser) parseCondExpr() cast.Expr {
	cond := p.parseBinaryExpr(1)
	if p.tok().Kind != ctoken.QUESTION {
		return cond
	}
	q := p.next()
	then := p.parseAssignExpr()
	p.expect(ctoken.COLON)
	els := p.parseCondExpr()
	return &cast.CondExpr{QPos: q.Pos, Cond: cond, Then: then, Else: els}
}

// binary operator precedence (C's, || lowest handled here).
func precedence(k ctoken.Kind) int {
	switch k {
	case ctoken.LOR:
		return 1
	case ctoken.LAND:
		return 2
	case ctoken.PIPE:
		return 3
	case ctoken.CARET:
		return 4
	case ctoken.AMP:
		return 5
	case ctoken.EQ, ctoken.NE:
		return 6
	case ctoken.LT, ctoken.GT, ctoken.LE, ctoken.GE:
		return 7
	case ctoken.SHL, ctoken.SHR:
		return 8
	case ctoken.PLUS, ctoken.MINUS:
		return 9
	case ctoken.STAR, ctoken.SLASH, ctoken.PERCENT:
		return 10
	default:
		return 0
	}
}

func (p *Parser) parseBinaryExpr(minPrec int) cast.Expr {
	lhs := p.parseUnaryExpr()
	for {
		t := p.tok()
		prec := precedence(t.Kind)
		if prec < minPrec || prec == 0 {
			return lhs
		}
		p.next()
		rhs := p.parseBinaryExpr(prec + 1)
		lhs = &cast.BinaryExpr{OpPos: t.Pos, Op: t.Kind, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnaryExpr() cast.Expr {
	t := p.tok()
	switch t.Kind {
	case ctoken.MINUS, ctoken.PLUS, ctoken.NOT, ctoken.TILDE, ctoken.STAR, ctoken.AMP:
		p.next()
		x := p.parseUnaryExpr()
		if t.Kind == ctoken.PLUS {
			return x // unary plus is a no-op
		}
		return &cast.UnaryExpr{OpPos: t.Pos, Op: t.Kind, X: x}
	case ctoken.INC, ctoken.DEC:
		p.next()
		x := p.parseUnaryExpr()
		return &cast.UnaryExpr{OpPos: t.Pos, Op: t.Kind, X: x}
	case ctoken.KwSizeof:
		p.next()
		if p.tok().Kind == ctoken.LPAREN && p.typeAfterLparen() {
			p.next()
			typ := p.parseTypeName()
			p.expect(ctoken.RPAREN)
			return &cast.SizeofExpr{KwPos: t.Pos, Type: typ}
		}
		x := p.parseUnaryExpr()
		return &cast.SizeofExpr{KwPos: t.Pos, X: x}
	case ctoken.LPAREN:
		if p.typeAfterLparen() {
			lp := p.next()
			typ := p.parseTypeName()
			p.expect(ctoken.RPAREN)
			x := p.parseUnaryExpr()
			return &cast.CastExpr{LparenPos: lp.Pos, Type: typ, X: x}
		}
	}
	return p.parsePostfixExpr()
}

// typeAfterLparen reports whether the token after the current '(' begins a
// type name (for casts and sizeof).
func (p *Parser) typeAfterLparen() bool {
	n := p.peek(1)
	switch n.Kind {
	case ctoken.KwVoid, ctoken.KwChar, ctoken.KwShort, ctoken.KwInt, ctoken.KwLong,
		ctoken.KwFloat, ctoken.KwDouble, ctoken.KwSigned, ctoken.KwUnsigned,
		ctoken.KwStruct, ctoken.KwUnion, ctoken.KwEnum, ctoken.KwConst, ctoken.KwVolatile:
		return true
	case ctoken.IDENT:
		return p.typedefs[n.Text]
	default:
		return false
	}
}

// parseTypeName parses a type-name (specifiers + abstract declarator).
func (p *Parser) parseTypeName() cast.TypeExpr {
	_, base := p.parseDeclSpecifiers()
	name, namePos, typ := p.parseDeclarator(base)
	if name != "" {
		p.errorf(namePos, "unexpected name %q in type", name)
	}
	return typ
}

func (p *Parser) parsePostfixExpr() cast.Expr {
	x := p.parsePrimaryExpr()
	for {
		t := p.tok()
		switch t.Kind {
		case ctoken.LPAREN:
			p.next()
			call := &cast.CallExpr{LparenPos: t.Pos, Fun: x}
			for p.tok().Kind != ctoken.RPAREN && p.tok().Kind != ctoken.EOF {
				call.Args = append(call.Args, p.parseAssignExpr())
				if !p.accept(ctoken.COMMA) {
					break
				}
			}
			p.expect(ctoken.RPAREN)
			x = call
		case ctoken.LBRACKET:
			p.next()
			idx := p.parseExpr()
			p.expect(ctoken.RBRACKET)
			x = &cast.IndexExpr{LbrackPos: t.Pos, X: x, Index: idx}
		case ctoken.DOT:
			p.next()
			name := p.expect(ctoken.IDENT)
			x = &cast.MemberExpr{DotPos: t.Pos, X: x, Name: name.Text}
		case ctoken.ARROW:
			p.next()
			name := p.expect(ctoken.IDENT)
			x = &cast.MemberExpr{DotPos: t.Pos, X: x, Name: name.Text, Arrow: true}
		case ctoken.INC, ctoken.DEC:
			p.next()
			x = &cast.PostfixExpr{OpPos: t.Pos, Op: t.Kind, X: x}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimaryExpr() cast.Expr {
	t := p.tok()
	switch t.Kind {
	case ctoken.IDENT:
		p.next()
		return &cast.Ident{NamePos: t.Pos, Name: t.Text}
	case ctoken.INTLIT:
		p.next()
		v, err := parseIntText(t.Text)
		if err != nil {
			p.errorf(t.Pos, "bad integer literal %q: %v", t.Text, err)
		}
		return &cast.IntLit{LitPos: t.Pos, Value: v, Text: t.Text}
	case ctoken.FLOATLIT:
		p.next()
		text := strings.TrimRight(t.Text, "fFlL")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.errorf(t.Pos, "bad float literal %q: %v", t.Text, err)
		}
		return &cast.FloatLit{LitPos: t.Pos, Value: v, Text: t.Text}
	case ctoken.STRLIT:
		p.next()
		// Adjacent string literals concatenate.
		val := t.Text
		for p.tok().Kind == ctoken.STRLIT {
			val += p.next().Text
		}
		return &cast.StrLit{LitPos: t.Pos, Value: val}
	case ctoken.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(ctoken.RPAREN)
		return &cast.ParenExpr{LparenPos: t.Pos, X: x}
	default:
		p.errorf(t.Pos, "expected expression, found %s", t)
		p.next()
		return &cast.IntLit{LitPos: t.Pos, Value: 0, Text: "0"}
	}
}

func parseIntText(text string) (int64, error) {
	s := strings.TrimRight(text, "uUlL")
	if s == "" {
		return 0, fmt.Errorf("empty literal")
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseInt(s[2:], 16, 64)
	}
	if len(s) > 1 && s[0] == '0' {
		return strconv.ParseInt(s[1:], 8, 64)
	}
	return strconv.ParseInt(s, 10, 64)
}
