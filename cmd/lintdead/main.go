// Command lintdead keeps the library from regrowing code that only tests
// run. It flags every top-level exported function declared under
// internal/ whose name appears in no non-test Go file of the scanned tree
// (the module root, so perfbench/ counts) apart from its own declaration.
// The match is by name, not by call graph, and methods are not checked:
// interfaces call them by name.
//
// A function kept on purpose (an ablation, or a fixture that tests of
// production code are written in) is exempt when its doc comment has a
// line "capplan:keep <reason>" with a non-empty reason.
//
// Usage: go run ./cmd/lintdead [root]   (default: .)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

const keepTag = "capplan:keep"

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	bad, err := lint(root, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lintdead: %v\n", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "lintdead: %d exported function(s) with no caller outside tests\n", bad)
		os.Exit(1)
	}
}

// lint scans the non-test Go files under root, reports to w each
// exported internal/ function nothing else names, and returns the count.
func lint(root string, w io.Writer) (int, error) {
	fset := token.NewFileSet()
	uses := make(map[string]int)
	var funcs []*ast.FuncDecl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		library := slices.Contains(strings.Split(filepath.ToSlash(path), "/"), "internal")
		declared := make(map[*ast.Ident]bool)
		for _, dd := range f.Decls {
			if fn, ok := dd.(*ast.FuncDecl); ok {
				// A declaration is no use, of a function or of a method
				// that shares its name.
				declared[fn.Name] = true
				if library && fn.Recv == nil && fn.Name.IsExported() && !kept(fn.Doc) {
					funcs = append(funcs, fn)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, fn := range funcs {
		if uses[fn.Name.Name] == 0 {
			fmt.Fprintf(w, "%s: %s has no caller outside tests; delete it or mark it %s <reason>\n",
				fset.Position(fn.Pos()), fn.Name.Name, keepTag)
			bad++
		}
	}
	return bad, nil
}

// kept reports whether a doc comment has a capplan:keep line with a reason.
func kept(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if reason, ok := strings.CutPrefix(line, keepTag+" "); ok && strings.TrimSpace(reason) != "" {
			return true
		}
	}
	return false
}
