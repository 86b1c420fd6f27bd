// AST pretty-printer: renders cast trees back to C-like source. No
// production code calls it; it stays because the tests read ASTs through
// it. It is the reference of the codec round-trip test (a decoded file
// must print as the encoded one did), the failure dump of the
// segment-parse tests (a piecewise parse that differs from the
// whole-buffer parse prints both files), and the parser's own
// round-trip test (parse → print → parse must converge). PrintExpr and
// PrintStmt render one node for the same use while debugging.

package cast

import (
	"fmt"
	"strings"

	"safeflow/internal/ctoken"
)

// Print renders a whole file.
func Print(f *File) string {
	p := &printer{}
	for _, d := range f.Decls {
		p.decl(d)
		p.nl()
	}
	return p.sb.String()
}

// PrintExpr renders one expression.
func PrintExpr(e Expr) string {
	p := &printer{}
	p.expr(e)
	return p.sb.String()
}

// PrintStmt renders one statement.
func PrintStmt(s Stmt) string {
	p := &printer{}
	p.stmt(s)
	return p.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) w(format string, args ...any) { fmt.Fprintf(&p.sb, format, args...) }

func (p *printer) nl() {
	p.sb.WriteByte('\n')
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("    ")
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (p *printer) decl(d Decl) {
	switch x := d.(type) {
	case *VarDecl:
		p.storage(x.Storage)
		p.declarator(x.Type, x.Name)
		if x.Init != nil {
			p.w(" = ")
			p.expr(x.Init)
		}
		p.w(";")
	case *FuncDecl:
		p.storage(x.Storage)
		p.declarator(x.Type.Result, "")
		p.w(" %s(", x.Name)
		for i, prm := range x.Type.Params {
			if i > 0 {
				p.w(", ")
			}
			p.declarator(prm.Type, prm.Name)
		}
		if x.Type.Variadic {
			if len(x.Type.Params) > 0 {
				p.w(", ")
			}
			p.w("...")
		}
		p.w(")")
		for _, a := range x.Annotations {
			p.nl()
			p.w("/***SafeFlow Annotation %s /***/", a.Body)
		}
		if x.Body == nil {
			p.w(";")
			return
		}
		p.nl()
		p.block(x.Body)
	case *TypedefDecl:
		p.w("typedef ")
		p.declarator(x.Type, x.Name)
		p.w(";")
	case *RecordDecl:
		p.typeExpr(x.Type)
		p.w(";")
	default:
		p.w("/* unhandled decl %T */", d)
	}
}

func (p *printer) storage(s StorageClass) {
	switch s {
	case StorageExtern:
		p.w("extern ")
	case StorageStatic:
		p.w("static ")
	}
}

// declarator prints type+name in C declarator syntax (arrays bind to the
// name, pointers to the type).
func (p *printer) declarator(t TypeExpr, name string) {
	switch x := t.(type) {
	case *ArrayType:
		p.declaratorArray(x, name)
	case *PointerType:
		p.typeExpr(x.Elem)
		p.w(" *")
		p.w("%s", name)
	default:
		p.typeExpr(t)
		if name != "" {
			p.w(" %s", name)
		}
	}
}

func (p *printer) declaratorArray(t *ArrayType, name string) {
	// Collect nested array dimensions.
	var dims []Expr
	var elem TypeExpr = t
	for {
		at, ok := elem.(*ArrayType)
		if !ok {
			break
		}
		dims = append(dims, at.Len)
		elem = at.Elem
	}
	p.declarator(elem, name)
	for _, d := range dims {
		p.w("[")
		if d != nil {
			p.expr(d)
		}
		p.w("]")
	}
}

func (p *printer) typeExpr(t TypeExpr) {
	switch x := t.(type) {
	case *BaseType:
		p.w("%s", x.Name)
	case *NamedType:
		p.w("%s", x.Name)
	case *PointerType:
		p.typeExpr(x.Elem)
		p.w("*")
	case *ArrayType:
		p.typeExpr(x.Elem)
		p.w("[")
		if x.Len != nil {
			p.expr(x.Len)
		}
		p.w("]")
	case *StructType:
		kw := "struct"
		if x.IsUnion {
			kw = "union"
		}
		p.w("%s", kw)
		if x.Tag != "" {
			p.w(" %s", x.Tag)
		}
		if x.Defined {
			p.w(" {")
			p.indent++
			for _, f := range x.Fields {
				p.nl()
				p.declarator(f.Type, f.Name)
				p.w(";")
			}
			p.indent--
			p.nl()
			p.w("}")
		}
	case *EnumType:
		p.w("enum")
		if x.Tag != "" {
			p.w(" %s", x.Tag)
		}
		if x.Defined {
			p.w(" { ")
			for i, m := range x.Members {
				if i > 0 {
					p.w(", ")
				}
				p.w("%s", m.Name)
				if m.Value != nil {
					p.w(" = ")
					p.expr(m.Value)
				}
			}
			p.w(" }")
		}
	case *FuncType:
		p.typeExpr(x.Result)
		p.w(" (*)(...)")
	default:
		p.w("/* type %T */", t)
	}
}

// ---------------------------------------------------------------------------
// Statements

func (p *printer) block(b *BlockStmt) {
	p.w("{")
	p.indent++
	for _, s := range b.List {
		p.nl()
		p.stmt(s)
	}
	p.indent--
	p.nl()
	p.w("}")
}

func (p *printer) stmt(s Stmt) {
	switch x := s.(type) {
	case *BlockStmt:
		p.block(x)
	case *DeclStmt:
		for i, vd := range x.Decls {
			if i > 0 {
				p.nl()
			}
			p.decl(vd)
		}
	case *ExprStmt:
		p.expr(x.X)
		p.w(";")
	case *EmptyStmt:
		p.w(";")
	case *IfStmt:
		p.w("if (")
		p.expr(x.Cond)
		p.w(") ")
		p.stmtAsBlock(x.Then)
		if x.Else != nil {
			p.w(" else ")
			p.stmtAsBlock(x.Else)
		}
	case *WhileStmt:
		p.w("while (")
		p.expr(x.Cond)
		p.w(") ")
		p.stmtAsBlock(x.Body)
	case *DoWhileStmt:
		p.w("do ")
		p.stmtAsBlock(x.Body)
		p.w(" while (")
		p.expr(x.Cond)
		p.w(");")
	case *ForStmt:
		p.w("for (")
		if x.Init != nil {
			switch init := x.Init.(type) {
			case *ExprStmt:
				p.expr(init.X)
			case *DeclStmt:
				for _, vd := range init.Decls {
					p.declarator(vd.Type, vd.Name)
					if vd.Init != nil {
						p.w(" = ")
						p.expr(vd.Init)
					}
				}
			}
		}
		p.w("; ")
		if x.Cond != nil {
			p.expr(x.Cond)
		}
		p.w("; ")
		if x.Post != nil {
			p.expr(x.Post)
		}
		p.w(") ")
		p.stmtAsBlock(x.Body)
	case *ReturnStmt:
		p.w("return")
		if x.X != nil {
			p.w(" ")
			p.expr(x.X)
		}
		p.w(";")
	case *BreakStmt:
		p.w("break;")
	case *ContinueStmt:
		p.w("continue;")
	case *SwitchStmt:
		p.w("switch (")
		p.expr(x.Tag)
		p.w(") {")
		for _, c := range x.Body {
			p.nl()
			if c.Values == nil {
				p.w("default:")
			} else {
				for i, v := range c.Values {
					if i > 0 {
						p.nl()
					}
					p.w("case ")
					p.expr(v)
					p.w(":")
				}
			}
			p.indent++
			for _, sub := range c.Body {
				p.nl()
				p.stmt(sub)
			}
			p.indent--
		}
		p.nl()
		p.w("}")
	case *LabeledStmt:
		p.w("%s:", x.Name)
		p.nl()
		p.stmt(x.Stmt)
	case *GotoStmt:
		p.w("goto %s;", x.Name)
	case *AnnotatedStmt:
		for _, a := range x.Annotations {
			p.w("/***SafeFlow Annotation %s /***/", a.Body)
			p.nl()
		}
		p.stmt(x.Stmt)
	default:
		p.w("/* unhandled stmt %T */", s)
	}
}

func (p *printer) stmtAsBlock(s Stmt) {
	if b, ok := s.(*BlockStmt); ok {
		p.block(b)
		return
	}
	p.w("{")
	p.indent++
	p.nl()
	p.stmt(s)
	p.indent--
	p.nl()
	p.w("}")
}

// ---------------------------------------------------------------------------
// Expressions

func (p *printer) expr(e Expr) {
	switch x := e.(type) {
	case *Ident:
		p.w("%s", x.Name)
	case *IntLit:
		p.w("%d", x.Value)
	case *FloatLit:
		if x.Text != "" {
			p.w("%s", x.Text)
		} else {
			p.w("%g", x.Value)
		}
	case *StrLit:
		p.w("%q", x.Value)
	case *ParenExpr:
		p.w("(")
		p.expr(x.X)
		p.w(")")
	case *UnaryExpr:
		p.w("%s", unaryToken(x.Op))
		p.exprParen(x.X)
	case *PostfixExpr:
		p.exprParen(x.X)
		p.w("%s", x.Op)
	case *BinaryExpr:
		p.exprParen(x.X)
		p.w(" %s ", x.Op)
		p.exprParen(x.Y)
	case *AssignExpr:
		p.expr(x.LHS)
		p.w(" %s ", x.Op)
		p.expr(x.RHS)
	case *CondExpr:
		p.exprParen(x.Cond)
		p.w(" ? ")
		p.expr(x.Then)
		p.w(" : ")
		p.expr(x.Else)
	case *CallExpr:
		p.expr(x.Fun)
		p.w("(")
		for i, a := range x.Args {
			if i > 0 {
				p.w(", ")
			}
			p.expr(a)
		}
		p.w(")")
	case *IndexExpr:
		p.exprParen(x.X)
		p.w("[")
		p.expr(x.Index)
		p.w("]")
	case *MemberExpr:
		p.exprParen(x.X)
		if x.Arrow {
			p.w("->")
		} else {
			p.w(".")
		}
		p.w("%s", x.Name)
	case *CastExpr:
		p.w("(")
		p.typeExpr(x.Type)
		p.w(") ")
		p.exprParen(x.X)
	case *SizeofExpr:
		p.w("sizeof(")
		if x.Type != nil {
			p.typeExpr(x.Type)
		} else {
			p.expr(x.X)
		}
		p.w(")")
	default:
		p.w("/* expr %T */", e)
	}
}

// exprParen wraps composite subexpressions in parentheses so the printed
// form is unambiguous regardless of the original precedence context.
func (p *printer) exprParen(e Expr) {
	switch e.(type) {
	case *Ident, *IntLit, *FloatLit, *StrLit, *ParenExpr, *CallExpr, *IndexExpr, *MemberExpr:
		p.expr(e)
	default:
		p.w("(")
		p.expr(e)
		p.w(")")
	}
}

func unaryToken(k ctoken.Kind) string {
	switch k {
	case ctoken.MINUS:
		return "-"
	case ctoken.NOT:
		return "!"
	case ctoken.TILDE:
		return "~"
	case ctoken.STAR:
		return "*"
	case ctoken.AMP:
		return "&"
	case ctoken.INC:
		return "++"
	case ctoken.DEC:
		return "--"
	default:
		return k.String()
	}
}
