package lint

import (
	"go/ast"
	"go/types"
)

// dataPathPkgs are the packages whose outputs are rank-visible: anything
// nondeterministic here can desynchronize virtual clocks or change the
// bytes a rank ships to its peers.
var dataPathPkgs = map[string]bool{
	"merge":     true,
	"partition": true,
	"cluster":   true,
	"core":      true,
}

// checkMapIter flags `for range` over a map in data-path packages unless
// the iteration is provably order-insensitive or explicitly justified:
//
//   - the enclosing function sorts after the loop starts (the collect-then-
//     sort idiom), or
//   - the body only deletes from the ranged map (the clear idiom), or
//   - the body is a single order-insensitive map write m[k] = expr keyed by
//     the iteration variable, or
//   - the site carries //lint:sorted <reason>.
func checkMapIter(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if !dataPathPkgs[pathElem(p.ScopePath(f))] {
			continue
		}
		// enclosing tracks the stack of function nodes around the walk.
		var stack []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.typeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if deleteOnlyBody(p, rng) ||
				mapCopyBody(p, rng) ||
				sortsAfter(p, stack, rng) {
				return true
			}
			if p.suppressed(f, rng.Pos(), "sorted") {
				return true
			}
			out = append(out, p.finding("det-mapiter", rng,
				"map iteration order reaches rank-visible data; sort the result or justify with //lint:sorted <reason>"))
			return true
		}
		ast.Inspect(f, walk)
	}
	return out
}

// deleteOnlyBody reports whether every statement of the range body is
// delete(m, k) on the ranged map — the order-insensitive clear idiom.
func deleteOnlyBody(p *Package, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) == 0 {
		return false
	}
	for _, st := range rng.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "delete" {
			return false
		}
		if obj := p.objectOf(id); obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
				return false
			}
		}
		if types.ExprString(ast.Unparen(call.Args[0])) != types.ExprString(ast.Unparen(rng.X)) {
			return false
		}
	}
	return true
}

// mapCopyBody reports whether the body is exactly one map write
// `m[k] = expr` where k is the iteration key, m is not the ranged map, and
// expr performs no calls — writes to distinct keys commute, so the result
// is independent of iteration order.
func mapCopyBody(p *Package, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	idx, ok := asg.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	if t := p.typeOf(idx.X); t == nil {
		return false
	} else if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	if types.ExprString(ast.Unparen(idx.X)) == types.ExprString(ast.Unparen(rng.X)) {
		return false // writing the ranged map while iterating it
	}
	kid, ok := ast.Unparen(idx.Index).(*ast.Ident)
	if !ok || kid.Name != key.Name {
		return false
	}
	target := types.ExprString(ast.Unparen(idx.X))
	clean := true
	ast.Inspect(asg.Rhs[0], func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			clean = false
			return false
		case *ast.Ident:
			if nn.Name == target {
				clean = false
				return false
			}
		}
		return true
	})
	return clean
}

// sortsAfter reports whether the innermost enclosing function contains a
// sort.*/slices.Sort* call positioned after the range statement begins —
// the collect-then-sort idiom that restores determinism.
func sortsAfter(p *Package, stack []ast.Node, rng *ast.RangeStmt) bool {
	var fn ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fn = stack[i]
		}
		if fn != nil {
			break
		}
	}
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.Pos() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := p.objectOf(sel.Sel)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort", "slices":
			found = true
			return false
		}
		return true
	})
	return found
}
