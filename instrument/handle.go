package instrument

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file decides which function bodies declare a goroutine handle.
// Records go through a handle (`__ft_g.R(&x)`) instead of a package
// function because looking up the calling goroutine is the shim's
// expensive step: a handle does it once per function invocation, which
// is sound because an invocation runs on exactly one goroutine.

// handleName is the identifier of the per-invocation goroutine handle.
const handleName = shimName + "_g"

// classifyLits decides which function literals get their own handle
// (r.own[lit] true) and which share the handle of the function they
// appear in (false). A literal shares when it always runs on that
// invocation's goroutine:
//
//   - it is called in place: func(){…}() or defer func(){…}();
//   - it is bound with := to a local whose every use is a direct call,
//     f() or defer f(), in the same function and outside any go
//     statement.
//
// Every other literal owns a handle: go statements, literals passed,
// returned, stored or sent, and locals that are reassigned or called
// from a nested literal. Everything inside a go statement's call counts
// as running elsewhere, because the rewriter moves a named callee's
// arguments into the child.
func (r *rewriter) classifyLits(files []*ast.File) {
	bound := map[*types.Var]*ast.FuncLit{} // := locals holding a literal
	boundIn := map[*types.Var]ast.Node{}   // ... and the function they live in
	disqualified := map[*types.Var]bool{}
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn, inGo, called := context(stack, n)
			switch n := n.(type) {
			case *ast.FuncLit:
				r.own[n] = !called || inGo
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						lit, isLit := stripParens(rhs).(*ast.FuncLit)
						id, isID := n.Lhs[i].(*ast.Ident)
						if !isLit || !isID {
							continue
						}
						if v, ok := r.info.Defs[id].(*types.Var); ok {
							bound[v], boundIn[v] = lit, fn
						}
					}
				}
			case *ast.Ident:
				if v, ok := r.info.Uses[n].(*types.Var); ok && bound[v] != nil {
					if !called || inGo || fn != boundIn[v] {
						disqualified[v] = true
					}
				}
			}
			stack = append(stack, n)
			return true
		})
	}
	for v, lit := range bound {
		if !disqualified[v] {
			r.own[lit] = false
		}
	}
}

// context locates n given its ancestors: the innermost enclosing
// function, whether a go statement of that function lies in between,
// and whether n is the callee of the call around it.
func context(ancestors []ast.Node, n ast.Node) (fn ast.Node, inGo, called bool) {
	i := len(ancestors) - 1
	for i >= 0 {
		if _, ok := ancestors[i].(*ast.ParenExpr); !ok {
			break
		}
		i--
	}
	if i >= 0 {
		if call, ok := ancestors[i].(*ast.CallExpr); ok {
			called = stripParens(call.Fun) == n
		}
	}
	for ; i >= 0; i-- {
		switch a := ancestors[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return a, inGo, called
		case *ast.GoStmt:
			inGo = true
		}
	}
	return nil, inGo, called
}

// declareHandle prepends `var __ft_g __ft.G` to a function body whose
// records — its own or those of literals sharing its handle — go
// through the handle, and does the same for every literal inside that
// owns one. The declaration is lazy: the handle resolves the goroutine
// at its first record.
func (r *rewriter) declareHandle(body *ast.BlockStmt) {
	if !r.handleUsed(body) {
		return
	}
	decl := &ast.DeclStmt{Decl: &ast.GenDecl{Tok: token.VAR, Specs: []ast.Spec{&ast.ValueSpec{
		Names: []*ast.Ident{ast.NewIdent(handleName)},
		Type:  &ast.SelectorExpr{X: ast.NewIdent(shimName), Sel: ast.NewIdent("G")},
	}}}}
	body.List = append([]ast.Stmt{decl}, body.List...)
	r.used = true
	r.stats.Handles++
}

// handleUsed reports whether n refers to the handle of the function it
// belongs to, directly or through literals that share it. Literals the
// rewriter synthesized (deferred sync wrappers) are not classified and
// share; the go wrapper is marked as owning.
func (r *rewriter) handleUsed(n ast.Node) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			own, classified := r.own[m]
			if own {
				r.declareHandle(m.Body)
			} else if r.handleUsed(m.Body) {
				used = true
				if classified {
					r.stats.SharedClosures++
				}
			}
			return false
		case *ast.Ident:
			if m.Name == handleName {
				used = true
			}
		}
		return true
	})
	return used
}
