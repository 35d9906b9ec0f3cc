package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// directive is one parsed //lint:<token> comment. used flips when the
// directive actually suppresses a finding during a Run; the
// stale-justification check flags directives that never fire.
type directive struct {
	tok  string
	c    *ast.Comment
	used bool
}

// fileDirectives holds the parsed //lint: comments of one file.
type fileDirectives struct {
	// tokens maps a source line to the directives present on it.
	tokens map[int][]*directive
	// pathOverride is the //lint:path value, if any (self-test corpus).
	pathOverride string
}

// parseDirectives extracts //lint:<token> [reason] comments. A suppression
// applies to findings on the comment's own line or the line directly below
// it (so both trailing and standalone-preceding comments work).
//
//	m[k] = v //lint:sorted feeds a sorted copy
//
//	//lint:detached joined via Coordinator.Wait
//	go func() { ... }()
func parseDirectives(fset *token.FileSet, f *ast.File) *fileDirectives {
	d := &fileDirectives{tokens: map[int][]*directive{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, "//lint:") {
				continue
			}
			rest := strings.TrimPrefix(text, "//lint:")
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			tok := fields[0]
			if tok == "path" {
				if len(fields) >= 2 {
					d.pathOverride = fields[1]
				}
				continue
			}
			line := fset.Position(c.Pos()).Line
			d.tokens[line] = append(d.tokens[line], &directive{tok: tok, c: c})
		}
	}
	return d
}

// fileDirectives returns (parsing on demand) the directives of f.
func (p *Package) fileDirectives(f *ast.File) *fileDirectives {
	if p.directives == nil {
		p.directives = map[*ast.File]*fileDirectives{}
	}
	d, ok := p.directives[f]
	if !ok {
		d = parseDirectives(p.Fset, f)
		p.directives[f] = d
	}
	return d
}

// suppressed reports whether a finding at pos in file f is justified by a
// //lint:<tok> comment on the same line or the line above, and marks the
// matching directive as used. Checks must therefore consult it only once
// a violation is established, or the staleness accounting goes blind.
func (p *Package) suppressed(f *ast.File, pos token.Pos, tok string) bool {
	d := p.fileDirectives(f)
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, dir := range d.tokens[l] {
			if dir.tok == tok {
				dir.used = true
				return true
			}
		}
	}
	return false
}

// waive marks every //lint:<tok> directive of p as used: a check that
// cannot judge p on this load must not make its justifications look stale.
func (p *Package) waive(tok string) {
	for _, f := range p.Files {
		for _, dirs := range p.fileDirectives(f).tokens {
			for _, dir := range dirs {
				if dir.tok == tok {
					dir.used = true
				}
			}
		}
	}
}
