package lint

import (
	"go/ast"
	"go/token"
)

// weightFieldNames are the conventional edge-weight field spellings across
// the repo's edge record types (graph.Edge.W, the bsp/mst internal
// records' w, mndmst.Edge.Weight).
var weightFieldNames = map[string]bool{
	"W": true, "w": true, "Weight": true, "weight": true,
}

// checkWeightCmp flags direct <, >, <=, >= comparisons whose operand is an
// edge-weight field outside internal/graph, the home of the designated
// total-order helper (WeightLess). The MSF is unique only
// because weight comparisons share one total order with the packed edge-id
// tie-break; ad-hoc comparisons are where partial orders sneak in. Sites
// that are themselves tie-break helpers justify with //lint:weightcmp.
func checkWeightCmp(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if pathElem(p.ScopePath(f)) == "graph" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
			default:
				return true
			}
			if !p.isWeightExpr(be.X) && !p.isWeightExpr(be.Y) {
				return true
			}
			if p.suppressed(f, be.Pos(), "weightcmp") {
				return true
			}
			out = append(out, p.finding("weight-cmp", be,
				"direct %s comparison of an edge weight; order through graph.WeightLess (total order with tie-break) or justify with //lint:weightcmp <reason>",
				be.Op))
			return true
		})
	}
	return out
}

// isWeightExpr reports whether e terminates in a selector of a weight field
// (e.W, h[i].w, g.W[a], el.Edges[i].W, ...), unwrapping parens, indexing,
// stars, and type conversions like uint64(e.W). Calls such as len(g.W) are
// not weight values and stay exempt.
func (p *Package) isWeightExpr(e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.CallExpr:
			// Only unwrap type conversions, not function calls.
			if len(v.Args) != 1 || p.Info == nil {
				return false
			}
			if tv, ok := p.Info.Types[v.Fun]; !ok || !tv.IsType() {
				return false
			}
			e = v.Args[0]
		case *ast.SelectorExpr:
			return weightFieldNames[v.Sel.Name]
		default:
			return false
		}
	}
}
