// Package parser builds a Mini AST from source text.
//
// The grammar (EBNF, `{}` repetition, `[]` option):
//
//	program    = { funcdecl } .
//	funcdecl   = "func" IDENT "(" [ IDENT { "," IDENT } ] ")" block .
//	block      = "{" { stmt } "}" .
//	stmt       = vardecl ";" | simple ";" | ifstmt | whilestmt | forstmt
//	           | "break" ";" | "continue" ";" | "return" [ expr ] ";"
//	           | "print" "(" expr ")" ";" | block .
//	vardecl    = "var" IDENT ( "[" expr "]" | [ "=" expr ] ) .
//	simple     = lvalue asgop expr | lvalue ("++" | "--") | expr .
//	lvalue     = IDENT [ "[" expr "]" ] .
//	ifstmt     = "if" "(" expr ")" stmt [ "else" stmt ] .
//	whilestmt  = "while" "(" expr ")" stmt .
//	forstmt    = "for" "(" [ vardecl | simple ] ";" [ expr ] ";" [ simple ] ")" stmt .
//	expr       = binary expression over unary / primary with Go-like precedence .
//	primary    = INT | "true" | "false" | IDENT | IDENT "(" args ")"
//	           | IDENT "[" expr "]" | "input" "(" ")" | "(" expr ")" .
package parser

import (
	"strconv"

	"vrp/internal/ast"
	"vrp/internal/lexer"
	"vrp/internal/source"
	"vrp/internal/token"
)

// Parse parses src as file name and returns the program. On syntax errors
// it returns a partial AST together with the error list.
func Parse(name, src string) (*ast.Program, error) {
	file := source.NewFile(name, src)
	var errs source.ErrorList
	p := &parser{file: file, errs: &errs, lex: lexer.New(file, &errs)}
	p.tok = p.lex.Next()
	p.ahead = p.lex.Next()
	prog := p.parseProgram()
	errs.Sort()
	return prog, errs.Err()
}

// ParseFunc parses file as one function declaration, such as the text of
// a lexer.Unit. Anything after the declaration is an error.
func ParseFunc(file *source.File) (*ast.FuncDecl, error) {
	var errs source.ErrorList
	p := &parser{file: file, errs: &errs, lex: lexer.New(file, &errs)}
	p.tok = p.lex.Next()
	p.ahead = p.lex.Next()
	d := p.parseFuncDecl()
	if p.kind() != token.EOF {
		p.errorf("unexpected %s after function %s", p.describe(), d.Name)
	}
	errs.Sort()
	return d, errs.Err()
}

// parser pulls tokens from the lexer as it goes, with one token of
// lookahead beyond the current one, so it never holds the file's token
// slice.
type parser struct {
	file *source.File
	errs *source.ErrorList
	lex  *lexer.Lexer

	tok   token.Token // current token
	ahead token.Token // the token after tok
	i     int         // tokens consumed, for progress checks
}

func (p *parser) cur() token.Token { return p.tok }
func (p *parser) kind() token.Kind { return p.tok.Kind }
func (p *parser) peek() token.Kind { return p.ahead.Kind }
func (p *parser) pos() source.Pos  { return p.file.PosFor(p.tok.Offset) }

// next consumes the current token and returns it. At EOF it stays put.
func (p *parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok, p.ahead = p.ahead, p.lex.Next()
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) {
	p.errs.Add(p.file.Name, p.pos(), format, args...)
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.kind() != k {
		p.errorf("expected %s, found %s", k, p.describe())
		return token.Token{Kind: k, Offset: p.cur().Offset}
	}
	return p.next()
}

func (p *parser) describe() string {
	t := p.cur()
	if t.Lit != "" {
		return "'" + t.Lit + "'"
	}
	return "'" + t.Kind.String() + "'"
}

// sync skips tokens until a likely statement boundary, to recover from a
// syntax error without cascading.
func (p *parser) sync() {
	for {
		switch p.kind() {
		case token.EOF, token.RBrace, token.KwFunc:
			return
		case token.Semi:
			p.next()
			return
		}
		p.next()
	}
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{File: p.file}
	for p.kind() != token.EOF {
		if p.kind() != token.KwFunc {
			p.errorf("expected 'func' at top level, found %s", p.describe())
			before := p.i
			p.sync()
			if p.i == before {
				p.next() // sync stopped without progress (e.g. stray '}')
			}
			continue
		}
		before := p.i
		prog.Funcs = append(prog.Funcs, p.parseFuncDecl())
		if p.i == before {
			p.next()
		}
	}
	return prog
}

func (p *parser) parseFuncDecl() *ast.FuncDecl {
	p.expect(token.KwFunc)
	namePos := p.pos()
	name := p.expect(token.Ident)
	d := &ast.FuncDecl{NamePos: namePos, Name: name.Lit}
	p.expect(token.LParen)
	for p.kind() != token.RParen && p.kind() != token.EOF {
		pp := p.pos()
		id := p.expect(token.Ident)
		d.Params = append(d.Params, &ast.Param{NamePos: pp, Name: id.Lit})
		if p.kind() != token.Comma {
			break
		}
		p.next()
	}
	p.expect(token.RParen)
	d.Body = p.parseBlock()
	return d
}

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.pos()
	p.expect(token.LBrace)
	b := &ast.BlockStmt{LBrace: lb}
	for p.kind() != token.RBrace && p.kind() != token.EOF {
		before := p.i
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.i == before { // no progress: recover
			p.sync()
		}
	}
	p.expect(token.RBrace)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.kind() {
	case token.LBrace:
		return p.parseBlock()
	case token.KwVar:
		s := p.parseVarDecl()
		p.expect(token.Semi)
		return s
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwBreak:
		s := &ast.BreakStmt{KwPos: p.pos()}
		p.next()
		p.expect(token.Semi)
		return s
	case token.KwContinue:
		s := &ast.ContinueStmt{KwPos: p.pos()}
		p.next()
		p.expect(token.Semi)
		return s
	case token.KwReturn:
		s := &ast.ReturnStmt{KwPos: p.pos()}
		p.next()
		if p.kind() != token.Semi {
			s.Value = p.parseExpr()
		}
		p.expect(token.Semi)
		return s
	case token.KwPrint:
		s := &ast.PrintStmt{KwPos: p.pos()}
		p.next()
		p.expect(token.LParen)
		s.Value = p.parseExpr()
		p.expect(token.RParen)
		p.expect(token.Semi)
		return s
	}
	s := p.parseSimple()
	p.expect(token.Semi)
	return s
}

func (p *parser) parseVarDecl() *ast.VarDecl {
	vp := p.pos()
	p.expect(token.KwVar)
	name := p.expect(token.Ident)
	d := &ast.VarDecl{VarPos: vp, Name: name.Lit}
	switch p.kind() {
	case token.LBracket:
		p.next()
		d.Size = p.parseExpr()
		p.expect(token.RBracket)
	case token.Assign:
		p.next()
		d.Init = p.parseExpr()
	}
	return d
}

// parseSimple parses an assignment, inc/dec, or expression statement.
func (p *parser) parseSimple() ast.Stmt {
	if p.kind() == token.Ident {
		// Lookahead decides between lvalue forms and a general expression.
		switch p.peek() {
		case token.Assign, token.PlusAssign, token.MinusAssign, token.StarAssign,
			token.SlashAssign, token.PercentAssign, token.Inc, token.Dec:
			ref := &ast.VarRef{NamePos: p.pos(), Name: p.next().Lit}
			return p.finishAssign(ref, nil)
		case token.LBracket:
			namePos := p.pos()
			name := p.next().Lit
			p.expect(token.LBracket)
			idx := p.parseExpr()
			p.expect(token.RBracket)
			ix := &ast.IndexExpr{Array: name, NamePos: namePos, Index: idx}
			if p.kind().IsAssignOp() || p.kind() == token.Inc || p.kind() == token.Dec {
				return p.finishAssign(nil, ix)
			}
			// A bare a[i] expression statement is useless but legal.
			return &ast.ExprStmt{X: ix}
		}
	}
	return &ast.ExprStmt{X: p.parseExpr()}
}

func (p *parser) finishAssign(ref *ast.VarRef, ix *ast.IndexExpr) ast.Stmt {
	op := p.kind()
	if op == token.Inc || op == token.Dec {
		p.next()
		return &ast.IncDecStmt{Target: ref, Index: ix, Op: op}
	}
	if !op.IsAssignOp() {
		p.errorf("expected assignment operator, found %s", p.describe())
		return &ast.ExprStmt{X: p.parseExpr()}
	}
	p.next()
	return &ast.AssignStmt{Target: ref, Index: ix, Op: op, Value: p.parseExpr()}
}

func (p *parser) parseIf() ast.Stmt {
	ip := p.pos()
	p.expect(token.KwIf)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	s := &ast.IfStmt{IfPos: ip, Cond: cond, Then: p.parseStmt()}
	if p.kind() == token.KwElse {
		p.next()
		s.Else = p.parseStmt()
	}
	return s
}

func (p *parser) parseWhile() ast.Stmt {
	wp := p.pos()
	p.expect(token.KwWhile)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	return &ast.WhileStmt{WhilePos: wp, Cond: cond, Body: p.parseStmt()}
}

func (p *parser) parseFor() ast.Stmt {
	fp := p.pos()
	p.expect(token.KwFor)
	p.expect(token.LParen)
	s := &ast.ForStmt{ForPos: fp}
	if p.kind() != token.Semi {
		if p.kind() == token.KwVar {
			s.Init = p.parseVarDecl()
		} else {
			s.Init = p.parseSimple()
		}
	}
	p.expect(token.Semi)
	if p.kind() != token.Semi {
		s.Cond = p.parseExpr()
	}
	p.expect(token.Semi)
	if p.kind() != token.RParen {
		s.Post = p.parseSimple()
	}
	p.expect(token.RParen)
	s.Body = p.parseStmt()
	return s
}

// ------------------------------------------------------------ expressions

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		op := p.kind()
		prec := op.Precedence()
		if prec < minPrec {
			return x
		}
		p.next()
		y := p.parseBinary(prec + 1)
		x = &ast.BinaryExpr{Op: op, X: x, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.kind() {
	case token.Minus:
		op := p.pos()
		p.next()
		return &ast.UnaryExpr{OpPos: op, Op: token.Minus, X: p.parseUnary()}
	case token.Not:
		op := p.pos()
		p.next()
		return &ast.UnaryExpr{OpPos: op, Op: token.Not, X: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	switch p.kind() {
	case token.Int:
		pos := p.pos()
		t := p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errs.Add(p.file.Name, pos, "integer literal %q out of range", t.Lit)
		}
		return &ast.IntLit{LitPos: pos, Value: v}
	case token.KwTrue:
		pos := p.pos()
		p.next()
		return &ast.BoolLit{LitPos: pos, Value: true}
	case token.KwFalse:
		pos := p.pos()
		p.next()
		return &ast.BoolLit{LitPos: pos, Value: false}
	case token.KwInput:
		pos := p.pos()
		p.next()
		p.expect(token.LParen)
		p.expect(token.RParen)
		return &ast.InputExpr{KwPos: pos}
	case token.LParen:
		p.next()
		x := p.parseExpr()
		p.expect(token.RParen)
		return x
	case token.Ident:
		pos := p.pos()
		name := p.next().Lit
		switch p.kind() {
		case token.LParen:
			p.next()
			call := &ast.CallExpr{Name: name, NamePos: pos}
			for p.kind() != token.RParen && p.kind() != token.EOF {
				call.Args = append(call.Args, p.parseExpr())
				if p.kind() != token.Comma {
					break
				}
				p.next()
			}
			p.expect(token.RParen)
			return call
		case token.LBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBracket)
			return &ast.IndexExpr{Array: name, NamePos: pos, Index: idx}
		}
		return &ast.VarRef{NamePos: pos, Name: name}
	}
	p.errorf("expected expression, found %s", p.describe())
	pos := p.pos()
	p.next()
	return &ast.IntLit{LitPos: pos, Value: 0}
}
