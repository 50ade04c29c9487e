// Package sem performs semantic analysis on a Mini AST: scope resolution,
// definite declaration before use, scalar/array kind checking and call
// arity checking. It leaves behind no annotations; irgen re-resolves scopes
// identically (the language has no shadow-sensitive constructs beyond
// lexical blocks, so resolution is cheap).
package sem

import (
	"vrp/internal/ast"
	"vrp/internal/source"
)

// VarKind distinguishes scalars from arrays.
type VarKind int

// Variable kinds.
const (
	ScalarVar VarKind = iota
	ArrayVar
)

type scope struct {
	parent *scope
	vars   map[string]VarKind
}

func (s *scope) lookup(name string) (VarKind, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if k, ok := sc.vars[name]; ok {
			return k, true
		}
	}
	return 0, false
}

type checker struct {
	file  *source.File
	errs  *source.ErrorList
	arity map[string]int // each function's parameter count
	scope *scope
	free  *scope // popped scopes, linked by parent, for push to reuse
	loops int
}

// Check validates prog and returns an error list if any problems exist.
func Check(prog *ast.Program) error {
	var errs source.ErrorList
	c := &checker{file: prog.File, errs: &errs, arity: make(map[string]int, len(prog.Funcs))}
	funcs := Funcs(prog)
	for _, f := range prog.Funcs {
		if prev := funcs[f.Name]; prev != f {
			c.errorf(f.Pos(), "function %q redeclared (previous declaration at %s)", f.Name, prev.Pos())
			continue
		}
		c.arity[f.Name] = len(f.Params)
	}
	if _, ok := funcs["main"]; !ok {
		c.errorf(source.Pos{Line: 1, Col: 1}, "program has no 'main' function")
	}
	for _, f := range prog.Funcs {
		c.checkFunc(f)
	}
	errs.Sort()
	return errs.Err()
}

// CheckFunc checks one function of file as Check checks each function
// of a program, against the program's signature table arity (each
// function's name and parameter count). The program-level checks,
// redeclaration and a missing main, are the caller's.
func CheckFunc(file *source.File, f *ast.FuncDecl, arity map[string]int) error {
	var errs source.ErrorList
	c := &checker{file: file, errs: &errs, arity: arity}
	c.checkFunc(f)
	errs.Sort()
	return errs.Err()
}

func (c *checker) errorf(pos source.Pos, format string, args ...any) {
	name := ""
	if c.file != nil {
		name = c.file.Name
	}
	c.errs.Add(name, pos, format, args...)
}

// push opens a scope, reusing one that pop emptied if there is one.
func (c *checker) push() {
	s := c.free
	if s != nil {
		c.free = s.parent
	} else {
		s = &scope{vars: map[string]VarKind{}}
	}
	s.parent = c.scope
	c.scope = s
}

// pop closes the innermost scope and keeps it, emptied, for push.
func (c *checker) pop() {
	s := c.scope
	c.scope = s.parent
	clear(s.vars)
	s.parent = c.free
	c.free = s
}

func (c *checker) declare(pos source.Pos, name string, kind VarKind) {
	if _, ok := c.scope.vars[name]; ok {
		c.errorf(pos, "variable %q redeclared in this scope", name)
		return
	}
	c.scope.vars[name] = kind
}

func (c *checker) checkFunc(f *ast.FuncDecl) {
	c.push()
	defer c.pop()
	for _, p := range f.Params {
		c.declare(p.Pos(), p.Name, ScalarVar)
	}
	c.checkBlock(f.Body, true)
}

// checkBlock checks a block; ownScope is false when the caller already
// pushed a scope that the block's declarations should live in (function
// bodies and for-loop bodies).
func (c *checker) checkBlock(b *ast.BlockStmt, inFuncScope bool) {
	if !inFuncScope {
		c.push()
		defer c.pop()
	}
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.checkBlock(s, false)
	case *ast.VarDecl:
		if s.Size != nil {
			c.checkExpr(s.Size)
			c.declare(s.Pos(), s.Name, ArrayVar)
			return
		}
		if s.Init != nil {
			c.checkExpr(s.Init)
		}
		c.declare(s.Pos(), s.Name, ScalarVar)
	case *ast.AssignStmt:
		c.checkLValue(s.Target, s.Index)
		c.checkExpr(s.Value)
	case *ast.IncDecStmt:
		c.checkLValue(s.Target, s.Index)
	case *ast.IfStmt:
		c.checkExpr(s.Cond)
		c.checkStmt(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.WhileStmt:
		c.checkExpr(s.Cond)
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
	case *ast.ForStmt:
		c.push()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond)
		}
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
		c.pop()
	case *ast.BreakStmt:
		if c.loops == 0 {
			c.errorf(s.Pos(), "'break' outside loop")
		}
	case *ast.ContinueStmt:
		if c.loops == 0 {
			c.errorf(s.Pos(), "'continue' outside loop")
		}
	case *ast.ReturnStmt:
		if s.Value != nil {
			c.checkExpr(s.Value)
		}
	case *ast.PrintStmt:
		c.checkExpr(s.Value)
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	}
}

func (c *checker) checkLValue(ref *ast.VarRef, ix *ast.IndexExpr) {
	if ref != nil {
		k, ok := c.scope.lookup(ref.Name)
		if !ok {
			c.errorf(ref.Pos(), "undeclared variable %q", ref.Name)
		} else if k != ScalarVar {
			c.errorf(ref.Pos(), "cannot assign to array %q without an index", ref.Name)
		}
		return
	}
	k, ok := c.scope.lookup(ix.Array)
	if !ok {
		c.errorf(ix.Pos(), "undeclared array %q", ix.Array)
	} else if k != ArrayVar {
		c.errorf(ix.Pos(), "%q is not an array", ix.Array)
	}
	c.checkExpr(ix.Index)
}

func (c *checker) checkExpr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.IntLit, *ast.BoolLit, *ast.InputExpr:
		// Always valid.
	case *ast.VarRef:
		k, ok := c.scope.lookup(e.Name)
		if !ok {
			c.errorf(e.Pos(), "undeclared variable %q", e.Name)
		} else if k != ScalarVar {
			c.errorf(e.Pos(), "array %q used without an index", e.Name)
		}
	case *ast.IndexExpr:
		k, ok := c.scope.lookup(e.Array)
		if !ok {
			c.errorf(e.Pos(), "undeclared array %q", e.Array)
		} else if k != ArrayVar {
			c.errorf(e.Pos(), "%q is not an array", e.Array)
		}
		c.checkExpr(e.Index)
	case *ast.CallExpr:
		n, ok := c.arity[e.Name]
		if !ok {
			c.errorf(e.Pos(), "call to undefined function %q", e.Name)
		} else if n != len(e.Args) {
			c.errorf(e.Pos(), "function %q takes %d argument(s), got %d", e.Name, n, len(e.Args))
		}
		for _, a := range e.Args {
			c.checkExpr(a)
		}
	case *ast.UnaryExpr:
		c.checkExpr(e.X)
	case *ast.BinaryExpr:
		if e.Op.Precedence() == 0 {
			c.errorf(e.Pos(), "invalid binary operator %s", e.Op)
		}
		c.checkExpr(e.X)
		c.checkExpr(e.Y)
	}
}

// Funcs returns the function table of a checked program, for callers that
// need name→decl resolution.
func Funcs(prog *ast.Program) map[string]*ast.FuncDecl {
	m := make(map[string]*ast.FuncDecl, len(prog.Funcs))
	for _, f := range prog.Funcs {
		if _, ok := m[f.Name]; !ok {
			m[f.Name] = f
		}
	}
	return m
}
