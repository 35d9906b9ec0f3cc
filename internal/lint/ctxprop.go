package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ctxBlockingMethods are the transport/cluster operations that block on
// the network: calling one from a context-aware function without passing
// or checking the context lets the caller's deadline expire while the
// callee waits forever.
var ctxBlockingMethods = map[string]bool{
	"Send":            true,
	"Recv":            true,
	"Barrier":         true,
	"Allreduce":       true,
	"AllreduceScalar": true,
	"StatAllreduce":   true,
	"Alltoall":        true,
}

// checkCtxProp enforces context propagation: inside any function that
// receives a context.Context, blocking constructs must observe it —
// time.Sleep never does (use a timer in a select with ctx.Done()), a
// blocking select needs a ctx.Done() arm (or a default arm making it
// non-blocking), and transport/cluster send/recv/collective calls must
// take the context or be justified. Nested closures inherit the
// obligation (they capture ctx); nested functions that declare their own
// context parameter are analyzed on their own.
func checkCtxProp(prog *Program) []Finding {
	var out []Finding
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if name := ctxParamName(p, fd.Type); name != "" {
					out = append(out, ctxPropBody(p, f, fd.Body, name, fd.Type.Results)...)
				} else {
					// Hunt for context-aware closures in ctx-free functions.
					out = append(out, ctxPropNested(p, f, fd.Body)...)
				}
			}
		}
	}
	return out
}

// ctxPropNested scans a body for FuncLits that declare a context param.
func ctxPropNested(p *Package, f *ast.File, body *ast.BlockStmt) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if name := ctxParamName(p, lit.Type); name != "" {
			out = append(out, ctxPropBody(p, f, lit.Body, name, lit.Type.Results)...)
			return false
		}
		return true
	})
	return out
}

// ctxParamName returns the name of the first context.Context parameter of
// ft, or "" (including the blank identifier: a discarded context cannot
// be observed, and the discard is its own documentation).
func ctxParamName(p *Package, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		if !isContextType(p.typeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

// ctxPropBody flags the blocking constructs of one context-aware body.
func ctxPropBody(p *Package, f *ast.File, body *ast.BlockStmt, ctxName string, results *ast.FieldList) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			// A closure with its own context param is its own scope.
			if ctxParamName(p, nn.Type) != "" {
				return false
			}
			return true
		case *ast.SelectStmt:
			if selectObservesCtx(p, nn) {
				return true
			}
			if !p.suppressed(f, nn.Pos(), "noctx") {
				fnd := p.finding("ctx-prop", nn,
					"blocking select in a context-aware function has no <-%s.Done() arm; add one (or a default arm) or justify with //lint:noctx <reason>", ctxName)
				fnd.Fix = selectDoneArmFix(p, f, nn, ctxName, results)
				out = append(out, fnd)
			}
		case *ast.CallExpr:
			obj := p.calleeObject(nn)
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
				if !p.suppressed(f, nn.Pos(), "noctx") {
					out = append(out, p.finding("ctx-prop", nn,
						"time.Sleep in a context-aware function ignores %s; select on a timer and %s.Done() or justify with //lint:noctx <reason>", ctxName, ctxName))
				}
				return true
			}
			scope := pathElem(fn.Pkg().Path())
			if (scope == "transport" || scope == "cluster") && ctxBlockingMethods[fn.Name()] && !callPassesCtx(p, nn) {
				if !p.suppressed(f, nn.Pos(), "noctx") {
					out = append(out, p.finding("ctx-prop", nn,
						"blocking %s.%s call in a context-aware function does not observe %s; it outlives the caller's cancellation — pass the context or justify with //lint:noctx <reason>",
						scope, fn.Name(), ctxName))
				}
			}
		}
		return true
	})
	return out
}

// selectObservesCtx reports whether the select is non-blocking (default
// arm) or has an arm receiving from a context's Done channel.
func selectObservesCtx(p *Package, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default: non-blocking
		}
		observed := false
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if s, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
					s.Sel.Name == "Done" && isContextType(p.typeOf(s.X)) {
					observed = true
					return false
				}
			}
			return true
		})
		if observed {
			return true
		}
	}
	return false
}

// callPassesCtx reports whether any argument of the call is a context.
func callPassesCtx(p *Package, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isContextType(p.typeOf(arg)) {
			return true
		}
	}
	return false
}

// selectDoneArmFix builds the mechanical autofix for a Done-less select:
// a `case <-ctx.Done():` arm inserted before the closing brace, returning
// ctx.Err() when the enclosing function returns exactly one error (and a
// bare return when it returns nothing). Other signatures get no fix —
// fabricating zero values is not mechanical.
func selectDoneArmFix(p *Package, f *ast.File, sel *ast.SelectStmt, ctxName string, results *ast.FieldList) []TextEdit {
	var ret string
	switch {
	case results == nil || results.NumFields() == 0:
		ret = "return"
	case results.NumFields() == 1 && len(results.List) == 1 && isErrorType(p.typeOf(results.List[0].Type)):
		ret = fmt.Sprintf("return %s.Err()", ctxName)
	default:
		return nil
	}
	off := p.Fset.Position(sel.Body.Rbrace).Offset
	return []TextEdit{{
		Filename: p.Fset.Position(sel.Body.Rbrace).Filename,
		Start:    off,
		End:      off,
		New:      fmt.Sprintf("case <-%s.Done():\n%s\n", ctxName, ret),
	}}
}
