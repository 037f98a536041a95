package vdlint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// UnitKind distinguishes the three type-check units a directory can
// produce, mirroring the go tool's build units.
type UnitKind int

const (
	// UnitPrimary is the importable package: the non-test files. Every
	// cross-package import resolves to a primary unit, so type identity
	// is consistent across the whole program.
	UnitPrimary UnitKind = iota
	// UnitTestAugmented re-checks the primary files together with the
	// in-package _test.go files, the way `go test` compiles the package
	// under test. It is never imported by other units.
	UnitTestAugmented
	// UnitExternalTest is the external test package (package foo_test).
	// Its import of the package under test resolves to the primary unit,
	// so type identity stays consistent with every other module package
	// it imports. Only when that fails to type-check does the loader
	// retry against the test-augmented unit: the export_test.go idiom
	// (external tests reaching symbols declared in in-package test
	// files). The retry re-checks every module package that imports the
	// package under test against the augmented unit too, as the go tool
	// rebuilds them for the test binary, so the package's own types stay
	// identical when they pass through those packages.
	UnitExternalTest
)

// String implements fmt.Stringer.
func (k UnitKind) String() string {
	switch k {
	case UnitPrimary:
		return "primary"
	case UnitTestAugmented:
		return "test"
	case UnitExternalTest:
		return "external-test"
	default:
		return fmt.Sprintf("UnitKind(%d)", int(k))
	}
}

// Package is one type-check unit of the loaded module.
type Package struct {
	// Path is the unit's import path; external test units append "_test".
	Path string
	// Dir is the directory relative to the module root ("." for the root).
	Dir string
	// Name is the package name declared by the unit's files.
	Name string
	// Kind says which of the directory's units this is.
	Kind UnitKind
	// Files holds every parsed file of the unit in file-name order. A
	// test-augmented unit repeats the primary files.
	Files []*ast.File
	// Owned holds the files this unit is responsible for reporting on:
	// all files for primary and external units, only the in-package test
	// files for the augmented unit (its primary files are owned by the
	// primary unit, so diagnostics are never duplicated).
	Owned []*ast.File
	// Types and TypesInfo are filled by the driver's type-check phase.
	Types     *types.Package
	TypesInfo *types.Info

	imports   []string   // unique import paths of Files
	deps      []*Package // module-internal units this unit waits for
	augmented *Package   // external test units: the export_test.go fallback for the package under test
	level     int        // 0-based topological level
}

// IsTest reports whether the unit carries test files.
func (p *Package) IsTest() bool { return p.Kind != UnitPrimary }

// Program is the loaded module: every unit, sharing one FileSet.
type Program struct {
	// ModulePath is the module path from go.mod.
	ModulePath string
	// Root is the absolute module root directory.
	Root string
	// Fset resolves token positions for all files.
	Fset *token.FileSet
	// Packages lists the units sorted by (Path, Kind).
	Packages []*Package

	levels  [][]*Package
	byPath  map[string]*Package // primary units by import path
	exports map[string]string   // import path → export data file
	source  bool                // go list failed: use the go/importer source importer

	impMu    sync.Mutex // guards ext during concurrent type-checks
	ext      types.Importer
	typed    bool
	typateMu sync.Mutex
}

// LoadOptions configures LoadWith.
type LoadOptions struct {
	// Exports supplies a pre-computed export-data table (import path →
	// file), bypassing the `go list` subprocess. Tests use this to share
	// one table across many fixture loads.
	Exports map[string]string
}

// Load parses and splits the module rooted at dir with default options.
func Load(dir string) (*Program, error) { return LoadWith(dir, LoadOptions{}) }

// LoadWith parses every buildable .go file of the module rooted at dir,
// splits each directory into its type-check units (primary,
// test-augmented, external test), resolves the module-internal import
// graph and computes the dependency levels the driver schedules over.
// Type-checking itself happens lazily in Run, under the driver's worker
// budget.
func LoadWith(dir string, opts LoadOptions) (*Program, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	prog := &Program{ModulePath: modPath, Root: root, Fset: token.NewFileSet()}

	type dirState struct {
		rel   string
		files map[string][]*ast.File // package name → files
	}
	dirs := map[string]*dirState{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		// Skip files excluded by build constraints (//go:build lines and
		// GOOS/GOARCH file suffixes) under the default build context, the
		// same view an unraced `go build` has. This is what keeps
		// mutually exclusive files like race_enabled_test.go /
		// race_disabled_test.go from colliding in one unit.
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(prog.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("vdlint: parse %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		ds, ok := dirs[rel]
		if !ok {
			ds = &dirState{rel: rel, files: map[string][]*ast.File{}}
			dirs[rel] = ds
		}
		name := file.Name.Name
		ds.files[name] = append(ds.files[name], file)
		return nil
	})
	if err != nil {
		return nil, err
	}

	prog.byPath = map[string]*Package{}
	for _, ds := range dirs {
		units, err := prog.splitUnits(ds.rel, ds.files)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, units...)
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		a, b := prog.Packages[i], prog.Packages[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		return a.Kind < b.Kind
	})
	if err := prog.resolveDeps(); err != nil {
		return nil, err
	}
	if err := prog.layer(); err != nil {
		return nil, err
	}
	prog.initImporter(opts)
	return prog, nil
}

// splitUnits turns one directory's files, grouped by declared package
// name, into type-check units.
func (prog *Program) splitUnits(rel string, byName map[string][]*ast.File) ([]*Package, error) {
	pkgPath := prog.ModulePath
	if rel != "." {
		pkgPath = prog.ModulePath + "/" + rel
	}
	// The primary name is the one declared by a non-test file; a
	// test-only directory falls back to the name with "_test" trimmed.
	primary := ""
	for name, files := range byName {
		for _, f := range files {
			if !prog.isTestFilename(f) {
				if primary != "" && primary != name {
					return nil, fmt.Errorf("vdlint: %s: multiple non-test packages %s and %s", rel, primary, name)
				}
				primary = name
			}
		}
	}
	if primary == "" {
		for name := range byName {
			primary = strings.TrimSuffix(name, "_test")
		}
	}
	var primaryFiles, inPkgTest, external []*ast.File
	for name, files := range byName {
		for _, f := range files {
			switch {
			case name == primary && !prog.isTestFilename(f):
				primaryFiles = append(primaryFiles, f)
			case name == primary:
				inPkgTest = append(inPkgTest, f)
			case name == primary+"_test" && prog.isTestFilename(f):
				external = append(external, f)
			default:
				return nil, fmt.Errorf("vdlint: %s: file %s declares package %s, want %s or %s_test",
					rel, filepath.Base(prog.filename(f)), name, primary, primary)
			}
		}
	}
	sortFiles := func(files []*ast.File) {
		sort.Slice(files, func(i, j int) bool { return prog.filename(files[i]) < prog.filename(files[j]) })
	}
	sortFiles(primaryFiles)
	sortFiles(inPkgTest)
	sortFiles(external)

	var units []*Package
	var augmented *Package
	if len(primaryFiles) > 0 {
		u := &Package{Path: pkgPath, Dir: rel, Name: primary, Kind: UnitPrimary,
			Files: primaryFiles, Owned: primaryFiles}
		prog.byPath[pkgPath] = u
		units = append(units, u)
	}
	if len(inPkgTest) > 0 {
		all := append(append([]*ast.File{}, primaryFiles...), inPkgTest...)
		augmented = &Package{Path: pkgPath, Dir: rel, Name: primary, Kind: UnitTestAugmented,
			Files: all, Owned: inPkgTest}
		units = append(units, augmented)
	}
	if len(external) > 0 {
		units = append(units, &Package{Path: pkgPath + "_test", Dir: rel, Name: primary + "_test", Kind: UnitExternalTest,
			Files: external, Owned: external, augmented: augmented})
	}
	for _, u := range units {
		u.imports = collectImports(u.Files)
	}
	return units, nil
}

// collectImports returns the unique, sorted import paths of the files.
func collectImports(files []*ast.File) []string {
	seen := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != "" && path != "C" {
				seen[path] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// resolveDeps wires every unit's module-internal imports to primary
// units and rejects the one shape this loader cannot type-check: an
// in-package test file importing a package that transitively imports the
// package under test (the go tool handles that by rebuilding the
// intermediate packages against the augmented unit; we do not).
func (prog *Program) resolveDeps() error {
	for _, u := range prog.Packages {
		for _, imp := range u.imports {
			if !prog.isModulePath(imp) {
				continue
			}
			dep, ok := prog.byPath[imp]
			if !ok {
				return fmt.Errorf("vdlint: %s (%s) imports %s, which has no buildable files", u.Path, u.Kind, imp)
			}
			u.deps = append(u.deps, dep)
			if u.augmented != nil && imp == u.augmented.Path {
				u.deps = append(u.deps, u.augmented)
			}
		}
	}
	// Diamond check runs after every unit's deps are wired — reaches
	// walks dep edges that a single pass would not have filled in yet.
	for _, u := range prog.Packages {
		if u.Kind != UnitTestAugmented {
			continue
		}
		for _, dep := range u.deps {
			if dep.Path != u.Path && prog.reaches(dep, u.Path) {
				return fmt.Errorf(
					"vdlint: in-package tests of %s import %s, which imports %s back; move those tests to an external _test package",
					u.Path, dep.Path, u.Path)
			}
		}
	}
	return nil
}

// reaches reports whether from's transitive module-internal imports
// include target.
func (prog *Program) reaches(from *Package, target string) bool {
	seen := map[*Package]bool{}
	var walk func(u *Package) bool
	walk = func(u *Package) bool {
		if u.Path == target {
			return true
		}
		if seen[u] {
			return false
		}
		seen[u] = true
		for _, d := range u.deps {
			if walk(d) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// layer assigns each unit its longest-path dependency level and groups
// the units into levels the driver runs in order.
func (prog *Program) layer() error {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[*Package]int{}
	var visit func(u *Package) error
	visit = func(u *Package) error {
		switch state[u] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("vdlint: import cycle through %s", u.Path)
		}
		state[u] = visiting
		u.level = 0
		for _, d := range u.deps {
			if err := visit(d); err != nil {
				return err
			}
			if d.level+1 > u.level {
				u.level = d.level + 1
			}
		}
		state[u] = done
		return nil
	}
	maxLevel := 0
	for _, u := range prog.Packages {
		if err := visit(u); err != nil {
			return err
		}
		if u.level > maxLevel {
			maxLevel = u.level
		}
	}
	prog.levels = make([][]*Package, maxLevel+1)
	for _, u := range prog.Packages { // Packages is sorted; levels inherit the order
		prog.levels[u.level] = append(prog.levels[u.level], u)
	}
	return nil
}

// isModulePath reports whether the import path lies inside the module.
func (prog *Program) isModulePath(path string) bool {
	return path == prog.ModulePath || strings.HasPrefix(path, prog.ModulePath+"/")
}

// filename returns the file's name on disk.
func (prog *Program) filename(f *ast.File) string {
	return prog.Fset.Position(f.Package).Filename
}

// isTestFilename reports whether the file's name ends in _test.go.
func (prog *Program) isTestFilename(f *ast.File) bool {
	return strings.HasSuffix(prog.filename(f), "_test.go")
}

// initImporter prepares the resolution of imports from outside the
// module: gc export data from `go list -export`, or the source importer
// when the go tool fails.
func (prog *Program) initImporter(opts LoadOptions) {
	if opts.Exports != nil {
		prog.exports = opts.Exports
		return
	}
	exports, err := GoListExports(prog.Root)
	prog.exports, prog.source = exports, err != nil
}

// GoListExports builds the import-path → export-data-file table for the
// module rooted at dir by asking the go tool, including test-only
// dependencies. The table covers everything the module imports from
// outside itself; reading export data is orders of magnitude faster than
// re-type-checking the standard library from source on every run.
func GoListExports(dir string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-test",
		"-f", "{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("vdlint: go list -export: %s", msg)
	}
	exports := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndex(line, "=")
		if i <= 0 {
			continue
		}
		path, file := line[:i], line[i+1:]
		if strings.Contains(path, " ") {
			continue // test-variant pseudo-packages of the module itself
		}
		exports[path] = file
	}
	return exports, nil
}

// importPath resolves one import for the unit being type-checked.
// Module-internal paths resolve to already-checked primary units;
// everything else goes through the shared external importer.
func (prog *Program) importPath(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if prog.isModulePath(path) {
		dep, ok := prog.byPath[path]
		if !ok {
			return nil, fmt.Errorf("no package %s in module", path)
		}
		if dep.Types == nil {
			return nil, fmt.Errorf("package %s not type-checked yet (scheduling bug)", path)
		}
		return dep.Types, nil
	}
	prog.impMu.Lock()
	defer prog.impMu.Unlock()
	if prog.ext == nil {
		if prog.source {
			prog.ext = importer.ForCompiler(prog.Fset, "source", nil)
		} else {
			prog.ext = importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
				file, ok := prog.exports[path]
				if !ok {
					return nil, fmt.Errorf("no export data for %s (stale build cache? re-run go build ./...)", path)
				}
				return os.Open(file)
			})
		}
	}
	return prog.ext.Import(path)
}

// unitImporter adapts a Program to types.Importer for one unit check.
// A non-nil under resolves its own path to that unit instead of the
// primary one, and every module package that reaches it to a copy
// re-checked against it, memoised in rebuilt.
type unitImporter struct {
	prog    *Program
	under   *Package
	rebuilt map[string]*types.Package
}

func (ui unitImporter) Import(path string) (*types.Package, error) {
	dep, inModule := ui.prog.byPath[path]
	switch {
	case ui.under == nil || !inModule:
		return ui.prog.importPath(path)
	case path == ui.under.Path:
		return ui.under.Types, nil
	case !ui.prog.reaches(dep, ui.under.Path):
		return ui.prog.importPath(path)
	}
	if pkg, ok := ui.rebuilt[path]; ok {
		return pkg, nil
	}
	pkg, err := (&types.Config{Importer: ui}).Check(path, ui.prog.Fset, dep.Files, nil)
	if err != nil {
		return nil, err
	}
	ui.rebuilt[path] = pkg
	return pkg, nil
}

// check type-checks one unit. Its module-internal dependencies must have
// completed; the driver's level ordering guarantees that. An external
// test unit that does not type-check against the primary package under
// test is retried against the test-augmented one (see UnitExternalTest).
func (prog *Program) check(u *Package) error {
	err := prog.checkWith(u, nil)
	if err != nil && u.augmented != nil && prog.checkWith(u, u.augmented) == nil {
		return nil
	}
	return err
}

func (prog *Program) checkWith(u, under *Package) error {
	var firstErr error
	conf := types.Config{
		Importer: unitImporter{prog: prog, under: under, rebuilt: map[string]*types.Package{}},
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := conf.Check(u.Path, prog.Fset, u.Files, info)
	if firstErr != nil {
		return fmt.Errorf("vdlint: typecheck %s (%s): %w", u.Path, u.Kind, firstErr)
	}
	if err != nil {
		return fmt.Errorf("vdlint: typecheck %s (%s): %w", u.Path, u.Kind, err)
	}
	u.Types = pkg
	u.TypesInfo = info
	return nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("vdlint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("vdlint: no module line in %s", gomod)
}
