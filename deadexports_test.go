package metaprep_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// implicitMethods are method names a type may declare only to satisfy an
// interface (fmt.Stringer, error, io.Reader, sort.Interface, json.Marshaler,
// http.Handler, ...): nothing in the module need call them by name.
var implicitMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true,
	"GoString": true, "Format": true, "Read": true, "Write": true, "Close": true,
	"ReadAt": true, "WriteTo": true, "ReadFrom": true, "Seek": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"UnmarshalText": true, "ServeHTTP": true, "Flush": true,
}

// TestNoDeadExports fails on any exported top-level function or method under
// internal/ or cmd/ whose name no non-test file in the module references
// (benchmark/ and examples/ count as callers). A function only tests call
// belongs in a _test.go file; one nothing calls belongs nowhere. The root
// package's facade is the public API and is not checked.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ name, where string }
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		checked := strings.HasPrefix(path, "internal"+string(filepath.Separator)) ||
			strings.HasPrefix(path, "cmd"+string(filepath.Separator))
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !checked || !fn.Name.IsExported() || (fn.Recv != nil && implicitMethods[fn.Name.Name]) {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{fn.Name.Name, filepath.Dir(path) + ": " + name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if !used[d.name] {
			dead = append(dead, d.where)
		}
	}
	slices.Sort(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported functions no non-test code references (delete them, or move test helpers into a _test.go file):\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// recvName is the receiver's type name, without pointer or type parameters.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
