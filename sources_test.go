package vdbench

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// moduleGoFiles lists every .go file of this module. Nested modules
// (vdperf/, the vdlint golden tree) and hidden directories are outside
// this module and are skipped.
func moduleGoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSourcesAreGofmted runs go/format over every .go file of this
// module and fails listing the files that are not formatted.
func TestSourcesAreGofmted(t *testing.T) {
	var unformatted []string
	for _, path := range moduleGoFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := format.Source(src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			unformatted = append(unformatted, path)
		}
	}
	if len(unformatted) > 0 {
		t.Fatalf("files not gofmt-formatted (run gofmt -w):\n%s", strings.Join(unformatted, "\n"))
	}
}

// TestProcessTotalsHaveOneReader keeps harness.RegisterProcessCounters
// the only non-test reader of the four process-global counter functions,
// so no daemon grows its own snapshot-diffing fold again. A reference is
// a package-qualified use from another package or an unqualified use
// inside the defining package; the definitions themselves do not count.
func TestProcessTotalsHaveOneReader(t *testing.T) {
	const module = "github.com/dsn2015/vdbench/"
	// readers maps each module-relative package to its process-global
	// counter function.
	readers := map[string]string{
		"internal/svclang/cfg":     "CacheTotals",
		"internal/svclang/compile": "OracleCacheTotals",
		"internal/svclang":         "OracleTotalsSnapshot",
		"internal/harness":         "ExecTotalsSnapshot",
	}
	var offenders []string
	fset := token.NewFileSet()
	for _, file := range moduleGoFiles(t) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgDir := filepath.ToSlash(filepath.Dir(file))
		imported := map[string]string{} // local name → module-relative path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if rel, ok := strings.CutPrefix(p, module); ok {
				name := path.Base(rel)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imported[name] = rel
			}
		}
		for _, decl := range f.Decls {
			encl := "package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				encl = fn.Name.Name
				if pkgDir == "internal/harness" && encl == "RegisterProcessCounters" {
					continue
				}
			}
			qualified := map[*ast.Ident]bool{}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					qualified[n.Name] = true // the definition, not a use
				case *ast.SelectorExpr:
					qualified[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && readers[imported[x.Name]] == n.Sel.Name {
						offenders = append(offenders, fmt.Sprintf("%s: %s.%s in %s", fset.Position(n.Pos()), x.Name, n.Sel.Name, encl))
					}
				case *ast.Ident:
					if !qualified[n] && readers[pkgDir] == n.Name {
						offenders = append(offenders, fmt.Sprintf("%s: %s in %s", fset.Position(n.Pos()), n.Name, encl))
					}
				}
				return true
			})
		}
	}
	if len(offenders) > 0 {
		t.Fatalf("process-global counter functions read outside harness.RegisterProcessCounters:\n%s", strings.Join(offenders, "\n"))
	}
}
