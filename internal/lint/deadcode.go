package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// runtimeMethods are found by name at run time through interfaces declared
// inside stdlib function bodies, which the loader skips (errors.Unwrap/Is/As).
var runtimeMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// exportedDecl is one declaration the dead-code check judges. spans are its
// own declaration, a type's including its methods: references there are
// not uses.
type exportedDecl struct {
	name  *ast.Ident
	spans []ast.Node
	used  bool
}

// checkDeadCode flags an exported package-level func, type, var or const,
// or an exported method, declared under internal/ when no non-test code
// outside its own declaration refers to it. Uses from cmd/, examples/,
// e2ebench/ and the root package count; test files are never loaded. A
// method is exempt when its type implements an interface holding it:
// one written anywhere in the module (anonymous ones included), a
// standard-library one, or one the standard library asserts by name.
//
// A package is judged only when every module package importing it is in
// the load, so `mndmst-lint ./internal/merge` stays quiet about what core
// uses. Surfaces kept on purpose for tests (oracles, fakes, hooks, fixture
// generators) justify with //lint:testonly <reason>.
func checkDeadCode(prog *Program) []Finding {
	loaded := map[string]bool{}
	for _, p := range prog.Pkgs {
		loaded[p.Path] = true
	}
	ifaces := programInterfaces(prog)
	decls := map[types.Object]*exportedDecl{}
	for _, p := range prog.Pkgs {
		judged := true
		for _, imp := range p.importers {
			judged = judged && loaded[imp]
		}
		if !judged {
			p.waive("testonly")
			continue
		}
		typeDecls := map[types.Object]*exportedDecl{}
		var methods []*ast.FuncDecl
		for _, f := range p.Files {
			if scope := p.ScopePath(f); !strings.Contains(scope, "/internal/") || strings.Contains(scope, "/testdata/") {
				continue
			}
			add := func(name *ast.Ident, n ast.Node) *exportedDecl {
				d := &exportedDecl{name: name, spans: []ast.Node{n}}
				if name.IsExported() {
					decls[p.Info.Defs[name]] = d
				}
				return d
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv != nil {
						methods = append(methods, decl)
						if implementsAny(p.Info.Defs[decl.Name], ifaces) {
							continue
						}
					}
					add(decl.Name, decl)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							typeDecls[p.Info.Defs[spec.Name]] = add(spec.Name, spec)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								add(name, spec)
							}
						}
					}
				}
			}
		}
		for _, fd := range methods {
			if d := typeDecls[receiverType(p.Info.Defs[fd.Name])]; d != nil {
				d.spans = append(d.spans, fd)
			}
		}
	}

	for _, p := range prog.Pkgs {
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if d := decls[obj]; d != nil && !d.within(id.Pos()) {
				d.used = true
			}
		}
	}
	var out []Finding
	for _, d := range decls { // Run sorts the findings
		if !d.used && !prog.suppressed(d.name.Pos(), "testonly") {
			out = append(out, prog.finding("dead-code", d.name.Pos(),
				"exported %s has no non-test use; delete it, or justify a surface kept for tests with //lint:testonly <reason>", d.name.Name))
		}
	}
	return out
}

// within reports whether pos lies inside d's own declaration.
func (d *exportedDecl) within(pos token.Pos) bool {
	for _, n := range d.spans {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// receiverType returns the type name a method is declared on.
func receiverType(method types.Object) types.Object {
	t := method.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// implementsAny reports whether a method's receiver type, or a pointer to
// it, implements an interface holding a method of its name.
func implementsAny(method types.Object, ifaces map[string][]*types.Interface) bool {
	if runtimeMethods[method.Name()] {
		return true
	}
	recv := receiverType(method)
	if recv == nil {
		return false
	}
	for _, iface := range ifaces[method.Name()] {
		if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
			return true
		}
	}
	return false
}

// programInterfaces indexes by method name every interface a type can
// satisfy: error, each package-level interface of the loaded packages and
// everything they import, and each interface type written in module code.
func programInterfaces(prog *Program) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	for _, p := range prog.Pkgs {
		visit(p.Pkg)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}
