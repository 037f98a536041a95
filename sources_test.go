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
	"sort"
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

// moduleImports maps each local import name of f that names a package of
// this module to its module-relative path.
func moduleImports(f *ast.File) map[string]string {
	const module = "github.com/dsn2015/vdbench/"
	imported := map[string]string{}
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
	return imported
}

// TestProcessTotalsHaveOneReader keeps harness.RegisterProcessCounters
// the only non-test reader of the four process-global counter functions,
// so no daemon grows its own snapshot-diffing fold again. A reference is
// a package-qualified use from another package or an unqualified use
// inside the defining package; the definitions themselves do not count.
func TestProcessTotalsHaveOneReader(t *testing.T) {
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
		imported := moduleImports(f)
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

// TestInternalFuncsHaveProductionCallers fails on every exported
// package-level function under internal/ that no non-test code
// references, so code only tests call does not ship. The scan covers the
// module and the vdperf/ benchmark module, which imports internal
// packages. A reference is a package-qualified use from another package
// or an unqualified use inside the defining package outside the
// function's own body, so a function reached only from another
// unreferenced one passes until that one is deleted. Methods are not
// checked: an interface or a facade alias can reach them without naming
// them.
func TestInternalFuncsHaveProductionCallers(t *testing.T) {
	// testOnly lists the functions kept for tests on purpose.
	testOnly := map[string]string{
		"internal/svclang.Execute":             "reference interpreter the VM is compared against",
		"internal/svclang.Structure":           "reference skeleton StructureFingerprint is compared against",
		"internal/svclang.StructureEqual":      "compares Structure skeletons in the tokeniser tests",
		"internal/svclang/reference.NewEngine": "reference engine the differential tests run",
		"internal/svclang.ParseOne":            "one-service parse fixture shared by many test files",
		"internal/workload.TemplateByName":     "template lookup fixture shared by cross-package tests",
	}
	files := moduleGoFiles(t)
	vdperf, err := filepath.Glob("vdperf/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, vdperf...)
	declared := map[string]token.Position{} // "pkgdir.Name" → declaration
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgDir := filepath.ToSlash(filepath.Dir(file))
		imported := moduleImports(f)
		for _, decl := range f.Decls {
			self := ""
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				self = fn.Name.Name
				if strings.HasPrefix(pkgDir, "internal/") && fn.Name.IsExported() {
					declared[pkgDir+"."+self] = fset.Position(fn.Pos())
				}
			}
			notUse := map[*ast.Ident]bool{}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					notUse[n.Name] = true
				case *ast.SelectorExpr:
					notUse[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
						used[imported[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.Ident:
					if !notUse[n] && n.Name != self {
						used[pkgDir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}
	var unreached []string
	for name, pos := range declared {
		if !used[name] && testOnly[name] == "" {
			unreached = append(unreached, fmt.Sprintf("%s: %s", pos, name))
		}
	}
	for name := range testOnly {
		if _, ok := declared[name]; !ok {
			unreached = append(unreached, "allowlisted but not declared: "+name)
		} else if used[name] {
			unreached = append(unreached, "allowlisted but has a production caller: "+name)
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Fatalf("exported internal functions without a production caller (delete them, or allowlist a deliberate test-only one):\n%s", strings.Join(unreached, "\n"))
	}
}
