package expt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestTablesPinStallFractionOne checks that every core.Config and
// core.QuadConfig literal in the experiment code sets StallFraction: 1,
// the paper's Fig. 2, which coarsens until no pair can merge. The
// default stall rule ends coarsening earlier and changes the
// partitions, so without the pin EXPERIMENTS.md and the results_*.txt
// files would no longer reproduce.
func TestTablesPinStallFractionOne(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	literals := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Config" && sel.Sel.Name != "QuadConfig" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "core" {
				return true
			}
			literals++
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, _ := kv.Key.(*ast.Ident)
				val, _ := kv.Value.(*ast.BasicLit)
				if key != nil && key.Name == "StallFraction" && val != nil && val.Value == "1" {
					return true
				}
			}
			t.Errorf("%s: core.%s literal without StallFraction: 1", fset.Position(lit.Pos()), sel.Sel.Name)
			return true
		})
	}
	if literals == 0 {
		t.Fatal("found no core.Config or core.QuadConfig literal; the check has lost its target")
	}
}
