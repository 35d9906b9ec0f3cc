package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
	DepsErrors []struct{ Err string }
}

// Load resolves patterns with `go list -deps -json` (stdlib-only loading:
// no x/tools dependency) and type-checks every package from source in
// dependency order. Standard-library dependencies are checked with
// IgnoreFuncBodies for speed; only non-stdlib module packages are returned
// for analysis. CGO is disabled so the stdlib file set is pure Go.
func Load(patterns []string) ([]*Package, error) {
	listed, err := goList(append([]string{"-e", "-deps", "-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	typed := map[string]*types.Package{"unsafe": types.Unsafe}
	var pkgs []*Package
	var module string
	for _, lp := range listed { // go list -deps emits dependency order
		if lp.ImportPath == "unsafe" {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		ours := !lp.Standard && lp.Module != nil
		if ours {
			module = lp.Module.Path
		}
		files, err := parseFiles(fset, lp)
		if err != nil {
			return nil, err
		}
		var info *types.Info
		if ours {
			info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
		}
		var typeErrs []error
		conf := types.Config{
			Importer:         mapImporter{typed: typed, importMap: lp.ImportMap},
			IgnoreFuncBodies: !ours,
			Error:            func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, _ := conf.Check(lp.ImportPath, fset, files, info)
		if ours && len(typeErrs) > 0 {
			return nil, fmt.Errorf("lint: type-check %s: %v", lp.ImportPath, typeErrs[0])
		}
		typed[lp.ImportPath] = tpkg
		if ours {
			pkgs = append(pkgs, &Package{
				Path:  lp.ImportPath,
				Name:  lp.Name,
				Fset:  fset,
				Files: files,
				Pkg:   tpkg,
				Info:  info,
			})
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint: %s matched no module packages", strings.Join(patterns, " "))
	}
	all, err := goList("-e", "-json=ImportPath,Imports", module+"/...")
	if err != nil {
		return nil, err
	}
	importers := map[string][]string{}
	for _, lp := range all {
		for _, imp := range lp.Imports {
			importers[imp] = append(importers[imp], lp.ImportPath)
		}
	}
	for _, p := range pkgs {
		p.importers = importers[p.Path]
	}
	return pkgs, nil
}

// goList runs `go list` with args and decodes its stream of JSON objects.
func goList(args ...string) ([]*listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var listed []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// ModuleRoot returns the main module's directory — the base against which
// baseline keys, SARIF URIs, and annotation paths are relativized so the
// artifacts stay stable regardless of the invocation directory.
func ModuleRoot() (string, error) {
	mods, err := goList("-m", "-json")
	if err != nil {
		return "", err
	}
	return mods[0].Dir, nil
}

// parseFiles parses the package's (non-test) Go files with comments.
func parseFiles(fset *token.FileSet, lp *listPackage) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// mapImporter resolves imports from the already-type-checked package set,
// applying the per-package vendor ImportMap the go tool reported.
type mapImporter struct {
	typed     map[string]*types.Package
	importMap map[string]string
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if p, ok := m.typed[path]; ok && p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("lint: import %q not loaded", path)
}
