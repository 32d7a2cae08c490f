package baseline

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// valueModel is the part of internal/mring the oracle may use: the value
// model, with its kinds and constructors, and the zero threshold. Relations,
// group tables, indexes and hashing belong to the engine.
var valueModel = map[string]bool{
	"Value": true, "Tuple": true, "Kind": true, "KInt": true, "KFloat": true, "KString": true,
	"Int": true, "Float": true, "Str": true, "Eps": true,
}

// keyMethods are the engine's tuple identity and hashing: the oracle keys
// tuples by an identity of its own, so a check of one is not the other.
var keyMethods = map[string]bool{
	"Key": true, "EncodeKey": true, "KeyEqual": true, "EqualAt": true, "Hash": true, "HashCols": true,
}

// TestOracleSharesNothing is the guard for the oracle's independence:
// no non-test file of this package imports a module package other than
// internal/expr and internal/mring, names an mring identifier outside
// valueModel, or calls a method named in keyMethods.
func TestOracleSharesNothing(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(p, "repro/") && p != "repro/internal/expr" && p != "repro/internal/mring" {
				bad = append(bad, fset.Position(imp.Pos()).String()+": imports "+p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if keyMethods[sel.Sel.Name] {
					bad = append(bad, fset.Position(sel.Pos()).String()+": calls ."+sel.Sel.Name)
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "mring" && !valueModel[sel.Sel.Name] {
					bad = append(bad, fset.Position(sel.Pos()).String()+": uses mring."+sel.Sel.Name)
				}
			}
			return true
		})
	}
	if len(bad) > 0 {
		t.Fatalf("the oracle reaches into the engine:\n  %s", strings.Join(bad, "\n  "))
	}
}
