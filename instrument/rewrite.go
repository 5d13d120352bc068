package instrument

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// rewriter holds the per-package rewrite state.
type rewriter struct {
	fset    *token.FileSet
	info    *types.Info
	pkg     *types.Package
	escaped map[*types.Var]bool   // locals whose address may be shared
	own     map[*ast.FuncLit]bool // literals that declare their own handle
	visited map[*ast.BlockStmt]bool
	used    bool // current file references the shim
	stats   Stats
}

func newRewriter(fset *token.FileSet, info *types.Info, pkg *types.Package) *rewriter {
	return &rewriter{
		fset:    fset,
		info:    info,
		pkg:     pkg,
		escaped: map[*types.Var]bool{},
		own:     map[*ast.FuncLit]bool{},
		visited: map[*ast.BlockStmt]bool{},
	}
}

// findEscaped marks local variables that can be reached from another
// goroutine: those whose address is taken and those captured by a
// function literal. Package-level variables are always instrumented and
// need no marking. The approximation errs toward instrumenting.
func (r *rewriter) findEscaped(files []*ast.File) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if v := r.rootVar(n.X); v != nil {
						r.escaped[v] = true
					}
				}
			case *ast.FuncLit:
				// Any variable used inside the literal but declared
				// outside it is captured and may be shared with the
				// goroutine the literal runs on.
				lit := n
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					obj, ok := r.info.Uses[id].(*types.Var)
					if ok && !obj.IsField() && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
						r.escaped[obj] = true
					}
					return true
				})
			}
			return true
		})
	}
}

// rootVar walks a value path (selectors and parens over a plain
// identifier) to its root variable, or nil if the path is anything
// more exotic.
func (r *rewriter) rootVar(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			v, _ := r.info.ObjectOf(x).(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// pkgCall builds __ft.Name(args...), a call of a shim package function.
func (r *rewriter) pkgCall(name string, args ...ast.Expr) *ast.CallExpr {
	r.used = true
	return &ast.CallExpr{
		Fun:  &ast.SelectorExpr{X: ast.NewIdent(shimName), Sel: ast.NewIdent(name)},
		Args: args,
	}
}

// shimCall builds __ft_g.Name(args...), a record through the goroutine
// handle of the function the call lands in (see declareHandle).
func (r *rewriter) shimCall(name string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{
		Fun:  &ast.SelectorExpr{X: ast.NewIdent(handleName), Sel: ast.NewIdent(name)},
		Args: args,
	}
}

func (r *rewriter) shimStmt(name string, args ...ast.Expr) ast.Stmt {
	return &ast.ExprStmt{X: r.shimCall(name, args...)}
}

// addrOf returns &e. The operand node is reused with its original
// positions, which go/format lays out correctly for the shapes the
// rewriter emits.
func addrOf(e ast.Expr) ast.Expr {
	return &ast.UnaryExpr{Op: token.AND, X: e}
}

// rewriteFile instruments every function body in f and injects the shim
// import (only when used) and the main-function boot hook.
func (r *rewriter) rewriteFile(f *ast.File, isMain bool) {
	r.used = false
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if ok && fd.Body != nil {
			r.rewriteBlock(fd.Body)
		}
	}
	if isMain {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv == nil && fd.Name.Name == "main" && fd.Body != nil {
				boot := &ast.DeferStmt{Call: &ast.CallExpr{Fun: r.pkgCall("Boot")}}
				fd.Body.List = append([]ast.Stmt{boot}, fd.Body.List...)
			}
		}
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			r.declareHandle(fd.Body)
		}
	}
	if r.used {
		spec := &ast.ImportSpec{
			Name: ast.NewIdent(shimName),
			Path: &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(shimImport)},
		}
		f.Decls = append([]ast.Decl{&ast.GenDecl{Tok: token.IMPORT, Specs: []ast.Spec{spec}}}, f.Decls...)
		f.Imports = append(f.Imports, spec)
	}
}

// rewriteBlock replaces the block's statement list with the
// instrumented version. Each block is rewritten at most once (function
// literals are reached both through their enclosing statement and
// directly).
func (r *rewriter) rewriteBlock(b *ast.BlockStmt) {
	if b == nil || r.visited[b] {
		return
	}
	r.visited[b] = true
	var out []ast.Stmt
	for _, s := range b.List {
		r.rewriteStmt(s, &out)
	}
	b.List = out
}

// rewriteFuncLits instruments the bodies of all function literals
// inside an expression (or statement) subtree.
func (r *rewriter) rewriteFuncLits(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			r.rewriteBlock(lit.Body)
		}
		return true
	})
}

// rewriteStmt appends the instrumented form of s to out: zero or more
// injected records, the (possibly modified) statement, and zero or more
// post-records.
func (r *rewriter) rewriteStmt(s ast.Stmt, out *[]ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		r.rewriteAssign(s, out)

	case *ast.IncDecStmt:
		r.rewriteFuncLits(s.X)
		if c := r.accessCall("R", s.X); c != nil {
			*out = append(*out, c)
		}
		if c := r.accessCall("W", s.X); c != nil {
			*out = append(*out, c)
		}
		*out = append(*out, s)

	case *ast.SendStmt:
		r.rewriteFuncLits(s)
		pre, post := r.readRecords(s.Chan)
		p2, post2 := r.readRecords(s.Value)
		pre = append(pre, p2...)
		*out = append(*out, pre...)
		*out = append(*out, r.shimStmt("ChanSend", s.Chan))
		r.stats.ChanOps++
		*out = append(*out, s)
		*out = append(*out, post...)
		*out = append(*out, post2...)

	case *ast.ExprStmt:
		r.rewriteExprStmt(s, out)

	case *ast.GoStmt:
		r.rewriteGo(s, out)

	case *ast.DeferStmt:
		r.rewriteDefer(s, out)

	case *ast.ReturnStmt:
		var pre, post []ast.Stmt
		for _, e := range s.Results {
			r.rewriteFuncLits(e)
			p, q := r.readRecords(e)
			pre = append(pre, p...)
			post = append(post, q...)
		}
		// A receive in a return expression completes before the return
		// executes; its record must land before the statement too.
		*out = append(*out, pre...)
		*out = append(*out, post...)
		*out = append(*out, s)

	case *ast.IfStmt:
		if s.Init == nil {
			r.rewriteFuncLits(s.Cond)
			pre, post := r.readRecords(s.Cond)
			*out = append(*out, pre...)
			_ = post // a receive in a condition: record skipped (would mis-order)
			if len(post) > 0 {
				r.stats.Skipped++
			}
		}
		r.rewriteBlock(s.Body)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			r.rewriteBlock(e)
		case *ast.IfStmt:
			var tail []ast.Stmt
			r.rewriteStmt(e, &tail)
			// An else-if whose condition needs records becomes
			// else { records...; if ... }.
			if len(tail) == 1 {
				s.Else = tail[0]
			} else {
				s.Else = &ast.BlockStmt{List: tail}
			}
		}
		*out = append(*out, s)

	case *ast.ForStmt:
		// Conditions and post statements re-evaluate each iteration;
		// injecting one record before the loop would under-count, and
		// restructuring the loop is not worth it. Bodies are covered.
		r.rewriteBlock(s.Body)
		*out = append(*out, s)

	case *ast.RangeStmt:
		r.rewriteRange(s, out)

	case *ast.SelectStmt:
		r.rewriteSelect(s)
		*out = append(*out, s)

	case *ast.SwitchStmt:
		if s.Init == nil && s.Tag != nil {
			r.rewriteFuncLits(s.Tag)
			pre, _ := r.readRecords(s.Tag)
			*out = append(*out, pre...)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				var body []ast.Stmt
				for _, bs := range cc.Body {
					r.rewriteStmt(bs, &body)
				}
				cc.Body = body
			}
		}
		*out = append(*out, s)

	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				var body []ast.Stmt
				for _, bs := range cc.Body {
					r.rewriteStmt(bs, &body)
				}
				cc.Body = body
			}
		}
		*out = append(*out, s)

	case *ast.BlockStmt:
		r.rewriteBlock(s)
		*out = append(*out, s)

	case *ast.LabeledStmt:
		// The label must stay attached to its statement, so only
		// statements that need no pre-records can be instrumented.
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			r.rewriteBlock(inner.Body)
		case *ast.RangeStmt:
			r.rewriteBlock(inner.Body)
		case *ast.BlockStmt:
			r.rewriteBlock(inner)
		case *ast.SelectStmt:
			r.rewriteSelect(inner)
		}
		*out = append(*out, s)

	default:
		r.rewriteFuncLits(s)
		*out = append(*out, s)
	}
}

// rewriteAssign handles assignments, including the `v := <-ch` and
// `v, ok := <-ch` receive forms.
func (r *rewriter) rewriteAssign(s *ast.AssignStmt, out *[]ast.Stmt) {
	r.rewriteFuncLits(s)

	// Receive assignment: record the receive after the statement, then
	// the writes (the written values are what the receive published).
	if len(s.Rhs) == 1 {
		if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			pre, _ := r.readRecords(u.X)
			*out = append(*out, pre...)
			*out = append(*out, s)
			*out = append(*out, r.shimStmt("ChanRecv", u.X))
			r.stats.ChanOps++
			for _, l := range s.Lhs {
				if c := r.accessCall("W", l); c != nil {
					*out = append(*out, c)
				}
			}
			return
		}
	}

	var pre, post []ast.Stmt
	for _, e := range s.Rhs {
		p, q := r.readRecords(e)
		pre = append(pre, p...)
		post = append(post, q...)
	}
	// Compound assignment (x += v) also reads the target; the written
	// location's sub-expressions (indices) are read in every form.
	for _, l := range s.Lhs {
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			p, _ := r.readRecords(l)
			pre = append(pre, p...)
		} else {
			pre = append(pre, r.indexReads(l)...)
		}
	}
	var writes []ast.Stmt
	for _, l := range s.Lhs {
		if c := r.accessCall("W", l); c != nil {
			writes = append(writes, c)
		}
	}
	*out = append(*out, pre...)
	*out = append(*out, post...)
	if s.Tok == token.DEFINE {
		// Writes to := targets refer to the new variables; they are
		// only recordable after the declaration.
		*out = append(*out, s)
		*out = append(*out, writes...)
	} else {
		*out = append(*out, writes...)
		*out = append(*out, s)
	}
}

// rewriteExprStmt handles expression statements: bare receives,
// close(), recognized sync-package calls, and ordinary calls.
func (r *rewriter) rewriteExprStmt(s *ast.ExprStmt, out *[]ast.Stmt) {
	r.rewriteFuncLits(s)

	if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		pre, _ := r.readRecords(u.X)
		*out = append(*out, pre...)
		*out = append(*out, s)
		*out = append(*out, r.shimStmt("ChanRecv", u.X))
		r.stats.ChanOps++
		return
	}

	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		*out = append(*out, s)
		return
	}

	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && r.isBuiltin(id) && len(call.Args) == 1 {
		pre, _ := r.readRecords(call.Args[0])
		*out = append(*out, pre...)
		*out = append(*out, r.shimStmt("ChanClose", call.Args[0]))
		r.stats.ChanOps++
		*out = append(*out, s)
		return
	}

	if op, recv := r.syncOp(call); op != "" {
		pre, post := r.syncRecords(op, recv)
		*out = append(*out, pre...)
		*out = append(*out, s)
		*out = append(*out, post...)
		return
	}

	var pre []ast.Stmt
	for _, a := range call.Args {
		p, _ := r.readRecords(a)
		pre = append(pre, p...)
	}
	*out = append(*out, pre...)
	*out = append(*out, s)
}

// rewriteGo turns a go statement into a forked, registered goroutine.
//
//	go func(...){ body }(args)   becomes
//	go func(__ft_parent int32, ...) { __ft.Begin(__ft_parent); defer __ft.End(); body }(__ft_g.Fork(), args)
//
// preserving the parent-side evaluation of the arguments. A named
// callee is wrapped in a literal instead, moving its evaluation into
// the child (documented limitation).
func (r *rewriter) rewriteGo(s *ast.GoStmt, out *[]ast.Stmt) {
	r.stats.Forks++
	parent := ast.NewIdent(shimName + "_parent")
	prologue := []ast.Stmt{
		&ast.ExprStmt{X: r.pkgCall("Begin", ast.NewIdent(parent.Name))},
		&ast.DeferStmt{Call: r.pkgCall("End")},
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		r.rewriteBlock(lit.Body)
		field := &ast.Field{Names: []*ast.Ident{parent}, Type: ast.NewIdent("int32")}
		lit.Type.Params.List = append([]*ast.Field{field}, lit.Type.Params.List...)
		lit.Body.List = append(prologue, lit.Body.List...)
		s.Call.Args = append([]ast.Expr{r.shimCall("Fork")}, s.Call.Args...)
		*out = append(*out, s)
		return
	}
	r.rewriteFuncLits(s.Call)
	wrapper := &ast.FuncLit{
		Type: &ast.FuncType{Params: &ast.FieldList{List: []*ast.Field{
			{Names: []*ast.Ident{parent}, Type: ast.NewIdent("int32")},
		}}},
		Body: &ast.BlockStmt{List: append(prologue, &ast.ExprStmt{X: s.Call})},
	}
	r.visited[wrapper.Body] = true
	r.own[wrapper] = true // runs on the child
	s.Call = &ast.CallExpr{Fun: wrapper, Args: []ast.Expr{r.shimCall("Fork")}}
	*out = append(*out, s)
}

// rewriteDefer wraps deferred sync operations so their records are
// emitted when the defer runs, not when it is declared.
func (r *rewriter) rewriteDefer(s *ast.DeferStmt, out *[]ast.Stmt) {
	r.rewriteFuncLits(s)
	if op, recv := r.syncOp(s.Call); op != "" {
		pre, post := r.syncRecords(op, recv)
		body := append(append(pre, &ast.ExprStmt{X: s.Call}), post...)
		wrapper := &ast.FuncLit{
			Type: &ast.FuncType{Params: &ast.FieldList{}},
			Body: &ast.BlockStmt{List: body},
		}
		r.visited[wrapper.Body] = true
		s.Call = &ast.CallExpr{Fun: wrapper}
	}
	*out = append(*out, s)
}

// rewriteRange instruments range bodies; ranging over a channel records
// a receive (and the loop-variable write) at the top of each iteration.
func (r *rewriter) rewriteRange(s *ast.RangeStmt, out *[]ast.Stmt) {
	r.rewriteBlock(s.Body)
	if t, ok := r.info.Types[s.X]; ok {
		if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
			var top []ast.Stmt
			top = append(top, r.shimStmt("ChanRecv", s.X))
			r.stats.ChanOps++
			if s.Key != nil {
				if c := r.accessCall("W", s.Key); c != nil {
					top = append(top, c)
				}
			}
			s.Body.List = append(top, s.Body.List...)
		}
	}
	pre, _ := r.readRecords(s.X)
	*out = append(*out, pre...)
	*out = append(*out, s)
}

// rewriteSelect records the committed communication at the top of each
// clause body. For receives this is the natural post-op position; for
// sends it is after the operation (the send already happened when the
// body runs) — see the package comment.
func (r *rewriter) rewriteSelect(s *ast.SelectStmt) {
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		var top []ast.Stmt
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			top = append(top, r.shimStmt("ChanSend", comm.Chan))
			r.stats.ChanOps++
		case *ast.ExprStmt:
			if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				top = append(top, r.shimStmt("ChanRecv", u.X))
				r.stats.ChanOps++
			}
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				if u, ok := comm.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					top = append(top, r.shimStmt("ChanRecv", u.X))
					r.stats.ChanOps++
					for _, l := range comm.Lhs {
						if c := r.accessCall("W", l); c != nil {
							top = append(top, c)
						}
					}
				}
			}
		}
		var body []ast.Stmt
		for _, bs := range cc.Body {
			r.rewriteStmt(bs, &body)
		}
		cc.Body = append(top, body...)
	}
}
