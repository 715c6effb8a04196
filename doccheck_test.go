package scaleout

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// auditDirs returns every package directory under internal/: the
// repository guarantees each one's exported surface is documented. CI
// runs this test, so an undocumented exported identifier fails the PR —
// the `revive exported` rule, without the dependency.
func auditDirs(t *testing.T) []string {
	var dirs []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// Glob fails only on a malformed pattern, and this one is fixed.
		if ms, _ := filepath.Glob(filepath.Join(path, "*.go")); len(ms) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 20 {
		t.Fatalf("found only %d packages under internal/", len(dirs))
	}
	return dirs
}

// TestExportedIdentifiersDocumented parses each package under internal/
// and requires a doc comment on every exported package-level declaration
// and every exported method with an exported receiver. A grouped
// const/var/type block may carry one comment for the group.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range auditDirs(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			hasPkgDoc := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					hasPkgDoc = true
				}
				for _, decl := range f.Decls {
					for _, miss := range undocumented(decl) {
						pos := fset.Position(miss.pos)
						t.Errorf("%s:%d: exported %s %s has no doc comment",
							filepath.ToSlash(pos.Filename), pos.Line, miss.kind, miss.name)
					}
				}
			}
			if !hasPkgDoc {
				t.Errorf("%s: package %s has no package doc comment", dir, pkg.Name)
			}
		}
	}
}

type missing struct {
	kind string
	name string
	pos  token.Pos
}

// undocumented returns the exported, comment-less identifiers a
// top-level declaration introduces.
func undocumented(decl ast.Decl) []missing {
	var out []missing
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		kind := "function"
		name := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) > 0 {
			recv := receiverName(d.Recv.List[0].Type)
			if recv == "" || !ast.IsExported(recv) {
				return nil // method on an unexported type
			}
			kind = "method"
			name = recv + "." + name
		}
		out = append(out, missing{kind, name, d.Pos()})
	case *ast.GenDecl:
		if d.Doc != nil {
			return nil // one comment may cover the whole group
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
					out = append(out, missing{"type", s.Name.Name, s.Pos()})
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						out = append(out, missing{kind, n.Name, n.Pos()})
					}
				}
			}
		}
	}
	return out
}

// receiverName unwraps a method receiver type expression ("*Engine",
// "Func[R]") to its type name.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr: // generic receiver Func[R]
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
