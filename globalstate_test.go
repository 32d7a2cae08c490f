package ivm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// readOnlyGlobals lists the package-level variables the state guard
// allows, by package name and variable name. Each is written only by its
// initializer and read afterwards; nothing may be added that a running
// engine mutates.
var readOnlyGlobals = map[string]bool{
	// TPC-H and TPC-DS schema, kind and cardinality tables.
	"tpch.Schemas":         true,
	"tpch.Kinds":           true,
	"tpch.PrimaryKeyRanks": true,
	"tpch.cardPerScale":    true,
	"tpcds.Schemas":        true,
	"tpcds.cardPerScale":   true,
	// Error sentinels: errors.New returns a pointer, compared by identity.
	"ivm.ErrClosed":         true,
	"net.ErrFrameTooLarge":  true,
	"net.ErrFrameTruncated": true,
}

// moduleFiles parses every non-test Go file outside benchmark/.
func moduleFiles(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 50 {
		t.Fatalf("parsed only %d files; the walk is not covering the module", len(files))
	}
	return fset, files
}

// TestNoMutablePackageState is the guard against process-global state
// with no owner: it parses every non-test Go file outside benchmark/ and
// fails on any package-level var holding a map, a sync value, a pointer
// or a channel (a call result counts, since its type may be any of them)
// unless readOnlyGlobals lists it. State belongs to an engine, a program
// or a request, so it dies with its owner.
func TestNoMutablePackageState(t *testing.T) {
	fset, files := moduleFiles(t)
	var bad []string
	seen := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					var val ast.Expr
					if i < len(vs.Values) {
						val = vs.Values[i]
					}
					what := mutableType(vs.Type)
					if what == "" {
						what = mutableValue(val)
					}
					if what == "" {
						continue
					}
					id := f.Name.Name + "." + name.Name
					if readOnlyGlobals[id] {
						seen[id] = true
						continue
					}
					bad = append(bad, fmt.Sprintf("%s: %s holds %s", fset.Position(name.Pos()), id, what))
				}
			}
		}
	}
	for id := range readOnlyGlobals {
		if !seen[id] {
			bad = append(bad, fmt.Sprintf("allowlisted %s no longer exists; drop it from readOnlyGlobals", id))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Fatalf("package-level mutable state:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestOneWireCodec is the guard for the byte formats: every format is
// written and read with internal/wire, so no non-test Go file outside
// benchmark/ may import encoding/gob (whose decoder is not hardened and
// whose map order is random) or declare a func init() (which gob's type
// registration needed, and which runs code no owner asked for).
func TestOneWireCodec(t *testing.T) {
	fset, files := moduleFiles(t)
	var bad []string
	for _, f := range files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				bad = append(bad, fmt.Sprintf("%s: imports encoding/gob", fset.Position(imp.Pos())))
			}
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "init" {
				bad = append(bad, fmt.Sprintf("%s: declares func init()", fset.Position(fd.Pos())))
			}
		}
	}
	if len(bad) > 0 {
		t.Fatalf("byte-format guard:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestUnsafeConfined is the guard for memory safety: only
// internal/mring/value.go, which packs a string into a Value as its data
// pointer and length, may import unsafe among the non-test Go files
// outside benchmark/. TestValueLayout holds those two words unexported,
// so no other code can break the length the pointer is read by.
func TestUnsafeConfined(t *testing.T) {
	fset, files := moduleFiles(t)
	var bad []string
	for _, f := range files {
		for _, imp := range f.Imports {
			pos := fset.Position(imp.Pos())
			if imp.Path.Value == `"unsafe"` && filepath.ToSlash(pos.Filename) != "internal/mring/value.go" {
				bad = append(bad, fmt.Sprintf("%s: imports unsafe", pos))
			}
		}
	}
	if len(bad) > 0 {
		t.Fatalf("unsafe outside internal/mring/value.go:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestBenchEvaluatesNothing is the guard for the experiment harness:
// every maintenance strategy internal/bench measures is a compiled
// program run by compile.Executor and counted by its eval.Stats, so no
// file of internal/bench, its tests included (the figures are tests),
// may import the evaluator or the delta deriver and build an engine of
// its own.
func TestBenchEvaluatesNothing(t *testing.T) {
	paths, err := filepath.Glob("internal/bench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	tests := 0
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, "_test.go") {
			tests++
		}
		for _, imp := range f.Imports {
			if v := imp.Path.Value; v == `"repro/internal/eval"` || v == `"repro/internal/delta"` {
				bad = append(bad, fmt.Sprintf("%s: imports %s", fset.Position(imp.Pos()), v))
			}
		}
	}
	if tests == 0 {
		t.Fatalf("parsed %d files of internal/bench and no test file; the glob is not covering the figures", len(paths))
	}
	if len(bad) > 0 {
		t.Fatalf("internal/bench evaluates outside the compiled programs:\n  %s", strings.Join(bad, "\n  "))
	}
}

// mutableType names what a declared or composite-literal type holds, or
// "" for anything else.
func mutableType(typ ast.Expr) string {
	switch x := typ.(type) {
	case *ast.MapType:
		return "a map"
	case *ast.ChanType:
		return "a channel"
	case *ast.StarExpr:
		return "a pointer"
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "sync" {
			return "a sync." + x.Sel.Name
		}
	}
	return ""
}

// mutableValue names what an initializer holds, or "" for anything else.
func mutableValue(val ast.Expr) string {
	switch x := val.(type) {
	case *ast.CompositeLit:
		return mutableType(x.Type)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return "a pointer"
		}
	case *ast.CallExpr:
		if fn, ok := x.Fun.(*ast.Ident); ok {
			switch fn.Name {
			case "make":
				return mutableType(x.Args[0])
			case "new":
				return "a pointer"
			}
		}
		return "a call result"
	}
	return ""
}
