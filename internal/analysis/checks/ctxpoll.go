package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Ctxpoll enforces the context-plumbing contract. Every exported
// function or method whose first parameter is a context.Context — the
// one form a cancellable entry point takes, with no ...Context suffix
// and no context-free twin required —
//
//   - names that parameter (an unnamed context can never be polled),
//   - actually observes it — referencing ctx.Err/ctx.Done/ctx.Deadline
//     or passing ctx onward (as a call argument, struct field, or
//     return value); an entry point that never looks at its context
//     silently loses cancellation for every caller, and
//   - never replaces the caller's context with context.Background()/
//     context.TODO().
//
// An exported function whose name ends in "Context" promises a context
// parameter: it is flagged if it has none, and audited as above
// wherever its context.Context parameter sits.
var Ctxpoll = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "exported functions taking a context.Context first (or named ...Context) must poll or propagate it and never discard it",
	Run:  runCtxpoll,
}

func runCtxpoll(pass *analysis.Pass) {
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !ast.IsExported(fd.Name.Name) {
				continue
			}
			name := fd.Name.Name
			suffixed := strings.HasSuffix(name, "Context") && name != "Context"
			ctxObj, ctxField := contextParam(pass, fd)
			switch {
			case ctxField == nil:
				if suffixed {
					pass.Reportf(fd.Pos(), "exported %s takes no context.Context parameter", name)
				}
			case suffixed || ctxField == fd.Type.Params.List[0]:
				checkContextUse(pass, fd, ctxObj)
			}
		}
	}
}

// checkContextUse audits one entry point's body: the context must be
// named, observed, and never replaced by a background context.
func checkContextUse(pass *analysis.Pass, fd *ast.FuncDecl, ctxObj types.Object) {
	if fd.Body == nil {
		return
	}
	if ctxObj == nil {
		pass.Reportf(fd.Pos(), "%s's context parameter is unnamed and can never be polled", fd.Name.Name)
		return
	}
	polled := false
	analysis.InspectStack([]*ast.File{wrapBody(fd)}, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if pass.ObjectOf(x) != ctxObj {
				return true
			}
			if usesContext(x, stack) {
				polled = true
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != ctxObj.Name() || i >= len(x.Rhs) {
					continue
				}
				if isBackgroundCall(x.Rhs[i]) && !insideNilGuard(pass, stack, ctxObj) {
					pass.Reportf(x.Pos(), "%s discards the caller's context with context.%s()",
						fd.Name.Name, backgroundName(x.Rhs[i]))
				}
			}
		}
		return true
	})
	if !polled {
		pass.Reportf(fd.Pos(),
			"%s never polls its context (no ctx.Err/ctx.Done/ctx.Deadline and ctx is not passed onward); cancellation is silently lost",
			fd.Name.Name)
	}
}

// wrapBody packages a single function declaration as a file so the
// stack inspector can walk it.
func wrapBody(fd *ast.FuncDecl) *ast.File {
	return &ast.File{Name: ast.NewIdent("p"), Decls: []ast.Decl{fd}}
}

// usesContext reports whether this occurrence of the ctx identifier
// counts as observing or propagating the context.
func usesContext(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		if parent.X != id {
			return false
		}
		switch parent.Sel.Name {
		case "Err", "Done", "Deadline", "Value":
			return true
		}
		return false
	case *ast.CallExpr:
		for _, arg := range parent.Args {
			if arg == id {
				return true // passed onward
			}
		}
		return false
	case *ast.KeyValueExpr:
		return parent.Value == id // stored in a struct (e.g. a queued job)
	case *ast.CompositeLit:
		for _, elt := range parent.Elts {
			if elt == id {
				return true
			}
		}
		return false
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		for _, rhs := range parent.Rhs {
			if rhs == id {
				return true // rebound and (presumably) used under the new name
			}
		}
		return false
	}
	return false
}

// insideNilGuard reports whether the stack passes through an if whose
// condition is `ctx == nil` — the idiomatic defaulting guard
// `if ctx == nil { ctx = context.Background() }`, which preserves any
// caller-supplied context and is not a discard.
func insideNilGuard(pass *analysis.Pass, stack []ast.Node, ctxObj types.Object) bool {
	isCtxNilCheck := func(e ast.Expr) bool {
		bin, ok := e.(*ast.BinaryExpr)
		if !ok || bin.Op != token.EQL {
			return false
		}
		matches := func(a, b ast.Expr) bool {
			id, ok := a.(*ast.Ident)
			if !ok || pass.ObjectOf(id) != ctxObj {
				return false
			}
			n, ok := b.(*ast.Ident)
			return ok && n.Name == "nil"
		}
		return matches(bin.X, bin.Y) || matches(bin.Y, bin.X)
	}
	for _, n := range stack {
		if ifs, ok := n.(*ast.IfStmt); ok && isCtxNilCheck(ifs.Cond) {
			return true
		}
	}
	return false
}

// isBackgroundCall matches context.Background() / context.TODO().
func isBackgroundCall(e ast.Expr) bool { return backgroundName(e) != "" }

func backgroundName(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "context" {
		return ""
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name
	}
	return ""
}
