package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// The facade holds exactly what the programs under examples/ use: every
// exported name repro.go declares must be referenced by some example, so
// a name no consumer needs cannot accumulate here.
func TestFacadeIsWhatExamplesUse(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "repro.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exported = append(exported, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						exported = append(exported, n.Name)
					}
				}
			}
		}
	}

	files, err := filepath.Glob("examples/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files under examples/ (%v)", err)
	}
	used := map[string]bool{}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "repro" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	checked := 0
	for _, name := range exported {
		if !ast.IsExported(name) {
			continue
		}
		checked++
		if !used[name] {
			t.Errorf("repro.%s is exported but no program under examples/ uses it", name)
		}
	}
	if checked == 0 {
		t.Fatal("repro.go declares no exported names; the check would pass vacuously")
	}
}
