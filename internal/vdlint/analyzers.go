package vdlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// All returns the module's analyzer suite in the order cmd/vdlint runs
// it.
func All() []*Analyzer {
	return []*Analyzer{
		ToolWired, RandImport, NoDefaultMux, CtxFirst, CompiledExec,
		CaseDigest, DetRand, CtxFlow, LockCopy, LeakyGo, JudgeSync,
	}
}

// ToolWired checks that every exported New* constructor in
// internal/detectors that returns a Tool is actually exercised — called
// from StandardSuite or from some test file. An unwired constructor is a
// detector the benchmark silently stopped measuring.
var ToolWired = &Analyzer{
	Name:   "toolwired",
	Doc:    "exported Tool constructors in internal/detectors must be exercised by StandardSuite or a test",
	Run:    runToolWired,
	Finish: finishToolWired,
}

// toolWiredResult is one unit's contribution: the constructors it
// defines (detectors primary only) and the call names its test files (or
// StandardSuite) make.
type toolWiredResult struct {
	ctors  []Finding // position + constructor name in Message
	called map[string]bool
}

func runToolWired(pass *Pass) {
	res := toolWiredResult{called: map[string]bool{}}
	collect := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				res.called[fun.Name] = true
			case *ast.SelectorExpr:
				res.called[fun.Sel.Name] = true
			}
			return true
		})
	}
	for _, file := range pass.Pkg.Owned {
		if pass.IsTestFile(file) {
			collect(file)
		}
	}
	if pass.Pkg.Kind == UnitPrimary && pass.Pkg.Path == pass.Prog.ModulePath+"/internal/detectors" {
		for _, file := range pass.Pkg.Files {
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn.Name.Name == "StandardSuite" && fn.Body != nil {
					collect(fn.Body)
				}
				if fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "New") &&
					returnsTool(pass, fn) {
					res.ctors = append(res.ctors, Finding{Pos: fn.Name.Pos(), Message: fn.Name.Name})
				}
			}
		}
	}
	pass.SetResult(res)
}

func finishToolWired(fp *FinishPass) {
	called := map[string]bool{}
	var ctors []Finding
	for _, u := range fp.Prog.Packages {
		res, ok := fp.Result(u).(toolWiredResult)
		if !ok {
			continue
		}
		for name := range res.called {
			called[name] = true
		}
		ctors = append(ctors, res.ctors...)
	}
	for _, c := range ctors {
		if !called[c.Message] {
			fp.Reportf(c.Pos, "constructor %s returns a Tool but is never exercised by StandardSuite or a test", c.Message)
		}
	}
}

// returnsTool reports whether fn's result list mentions the detectors
// Tool type, resolved through type information.
func returnsTool(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, field := range fn.Type.Results.List {
		t := pass.Pkg.TypesInfo.TypeOf(field.Type)
		for {
			switch tt := t.(type) {
			case *types.Pointer:
				t = tt.Elem()
				continue
			case *types.Slice:
				t = tt.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Tool" &&
			named.Obj().Pkg() == pass.Pkg.Types {
			return true
		}
	}
	return false
}

// RandImport checks that no package outside internal/stats imports
// math/rand (v1 or v2). All randomness in the module must flow through
// the seedable, splittable stats.RNG so campaigns stay reproducible;
// a stray global-state rand import silently breaks determinism.
var RandImport = &Analyzer{
	Name: "randimport",
	Doc:  "only internal/stats may import math/rand; everything else must use stats.RNG",
	Run:  runRandImport,
}

func runRandImport(pass *Pass) {
	pkgPath := strings.TrimSuffix(pass.Pkg.Path, "_test")
	if pkgPath == pass.Prog.ModulePath+"/internal/stats" {
		return
	}
	for _, file := range pass.Pkg.Owned {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Path.Pos(),
					"package %s imports %s; use internal/stats.RNG for reproducible randomness", pkgPath, path)
			}
		}
	}
}

// NoDefaultMux checks that no non-test code routes through the global
// http.DefaultServeMux: no http.Handle/http.HandleFunc, no direct
// DefaultServeMux references, and no http.ListenAndServe(TLS) with a nil
// handler. The serving layer must build explicit *http.ServeMux values
// (as internal/service does) so handlers stay testable and no package
// can mutate another's routing via global state.
var NoDefaultMux = &Analyzer{
	Name: "nodefaultmux",
	Doc:  "non-test code must not use http.DefaultServeMux (http.Handle/HandleFunc, nil-handler ListenAndServe)",
	Run:  runNoDefaultMux,
}

func runNoDefaultMux(pass *Pass) {
	if pass.Pkg.Kind != UnitPrimary {
		return
	}
	info := pass.Pkg.TypesInfo
	for _, file := range pass.Pkg.Owned {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !isPkgFunc(info, sel, "net/http", "ListenAndServe", "ListenAndServeTLS") {
					return true
				}
				name := sel.Sel.Name
				if (name == "ListenAndServe" && len(n.Args) == 2 && isNil(n.Args[1])) ||
					(name == "ListenAndServeTLS" && len(n.Args) == 4 && isNil(n.Args[3])) {
					pass.Reportf(n.Pos(),
						"http.%s with a nil handler serves http.DefaultServeMux; pass an explicit *http.ServeMux", name)
				}
			case *ast.SelectorExpr:
				obj := info.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "net/http" {
					return true
				}
				switch n.Sel.Name {
				case "DefaultServeMux":
					pass.Reportf(n.Pos(), "use of http.DefaultServeMux; construct a mux with http.NewServeMux")
				case "Handle", "HandleFunc":
					// Only the package-level functions register on the
					// default mux; (*ServeMux).Handle is the fix.
					if _, isFunc := obj.(*types.Func); isFunc && obj.(*types.Func).Type().(*types.Signature).Recv() == nil {
						pass.Reportf(n.Pos(),
							"http.%s registers on http.DefaultServeMux; register on an explicit *http.ServeMux", n.Sel.Name)
					}
				}
			}
			return true
		})
	}
}

// CtxFirst checks the module's context-first convention in the packages
// that form the execution pipeline: an exported function (or method) in
// internal/harness, internal/experiments or internal/service that
// accepts a context.Context must take it as the first parameter, the
// standard library shape every caller expects. A buried context is
// almost always a retrofitted signature that the next refactor will get
// wrong.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "exported functions in internal/harness, internal/experiments, internal/service and internal/dist must take context.Context first",
	Run:  runCtxFirst,
}

// ctxFirstPackages lists the module-relative package paths the
// context-first convention is enforced in.
var ctxFirstPackages = []string{
	"internal/harness",
	"internal/experiments",
	"internal/service",
	"internal/dist",
}

func runCtxFirst(pass *Pass) {
	if pass.Pkg.Kind != UnitPrimary || !inPackageSet(pass, ctxFirstPackages) {
		return
	}
	info := pass.Pkg.TypesInfo
	for _, file := range pass.Pkg.Owned {
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Type.Params == nil {
				continue
			}
			// Walk the flattened parameter slots; only the first context
			// parameter matters — at slot zero the signature is
			// compliant.
			slot := 0
			for _, field := range fn.Type.Params.List {
				names := len(field.Names)
				if names == 0 {
					names = 1
				}
				if isContextType(info.TypeOf(field.Type)) {
					if slot != 0 {
						pass.Reportf(field.Pos(),
							"exported %s takes context.Context as parameter %d; contexts go first", fn.Name.Name, slot+1)
					}
					break
				}
				slot += names
			}
		}
	}
}

// CompiledExec checks that the execution-path packages — the ones that
// run svclang services inside campaigns and experiments — execute
// through the compiled engine rather than the raw svclang entry points,
// which bypass the shared program cache and the arena pool. It also
// keeps the reference implementation test-only, and so out of every
// production binary: outside internal/svclang/reference, no non-test
// file may import that package, call compile.NewReferenceEngine, or
// call the interpreter or the exhaustive search — the package defining
// a function excepted for its own calls. Tests are exempt (the
// differential suites exist to call both).
var CompiledExec = &Analyzer{
	Name: "compiledexec",
	Doc:  "execution-path packages must run services through compile.Engine, not raw svclang entry points; the reference interpreter, exhaustive search and internal/svclang/reference are test-only",
	Run:  runCompiledExec,
}

// execPathPackages lists the module-relative package paths whose
// non-test code must execute services through the compiled engine.
// internal/svclang and internal/svclang/compile themselves are the
// implementations and are naturally absent.
var execPathPackages = []string{
	"internal/detectors",
	"internal/workload",
	"internal/harness",
	"internal/experiments",
}

// rawExecFuncs are the svclang entry points the execution path must
// reach through compile.Engine instead; true marks those only the
// reference implementation and tests may call at all.
var rawExecFuncs = map[string]bool{
	"Execute": true, "ExecuteInSession": true,
	"AnalyzeProbing": false, "AnalyzeProbingExhaustive": true,
}

func runCompiledExec(pass *Pass) {
	svclangPath := pass.Prog.ModulePath + "/internal/svclang"
	compilePath := svclangPath + "/compile"
	referencePath := svclangPath + "/reference"
	if pass.Pkg.Kind != UnitPrimary || pass.Pkg.Path == referencePath {
		return
	}
	execPath := inPackageSet(pass, execPathPackages)
	for _, file := range pass.Pkg.Owned {
		for _, imp := range file.Imports {
			if strings.Trim(imp.Path.Value, `"`) == referencePath {
				pass.Reportf(imp.Path.Pos(),
					"package %s imports internal/svclang/reference outside a test; the reference implementation exists for differential tests only",
					pass.Pkg.Path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pass.Pkg.TypesInfo, call)
			if callee == nil || callee.Pkg() == nil || callee.Type().(*types.Signature).Recv() != nil ||
				callee.Pkg().Path() == pass.Pkg.Path {
				return true
			}
			testOnly, raw := rawExecFuncs[callee.Name()]
			raw = raw && callee.Pkg().Path() == svclangPath
			switch {
			case execPath && raw:
				pass.Reportf(call.Pos(),
					"package %s calls svclang.%s directly; execute through compile.Engine so programs compile once and arenas pool",
					pass.Pkg.Path, callee.Name())
			case raw && testOnly:
				pass.Reportf(call.Pos(),
					"package %s calls svclang.%s outside a test; the reference interpreter and exhaustive search exist for differential tests only, use compile.Engine",
					pass.Pkg.Path, callee.Name())
			case callee.Pkg().Path() == compilePath && callee.Name() == "NewReferenceEngine":
				pass.Reportf(call.Pos(),
					"package %s calls compile.NewReferenceEngine outside a test; the reference engine exists for differential tests only, use compile.NewEngine",
					pass.Pkg.Path)
			}
			return true
		})
	}
}

// CaseDigest checks that a campaign reads each service's digest off its
// case instead of re-deriving it. Labelling (internal/workload) digests
// every service once and stores the digest on the workload.Case it
// builds; every per-body table downstream keys by workload.Case.Digest.
// Outside internal/svclang/..., internal/workload and tests, no code
// may call svclang.Service.Digest, which hashes the whole body, or
// build a memo.Cache keyed by *svclang.Service, the per-pointer memo
// that re-derived the digest or a program for each case of every
// campaign.
var CaseDigest = &Analyzer{
	Name: "casedigest",
	Doc:  "outside internal/svclang/..., internal/workload and tests, read a service's digest off its case (workload.Case.Digest): no svclang.Service.Digest call, no memo.Cache keyed by *svclang.Service",
	Run:  runCaseDigest,
}

func runCaseDigest(pass *Pass) {
	svclangPath := pass.Prog.ModulePath + "/internal/svclang"
	if pass.Pkg.Kind != UnitPrimary || pass.Pkg.Path == svclangPath ||
		strings.HasPrefix(pass.Pkg.Path, svclangPath+"/") || inPackageSet(pass, []string{"internal/workload"}) {
		return
	}
	isService := func(t types.Type) bool {
		p, ok := t.(*types.Pointer)
		return ok && namedIn(p.Elem(), svclangPath, "Service") != nil
	}
	info := pass.Pkg.TypesInfo
	for _, file := range pass.Pkg.Owned {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Name() != "Digest" {
					return true
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isService(recv.Type()) {
					pass.Reportf(n.Sel.Pos(),
						"package %s calls svclang.Service.Digest; read the digest labelling stored on the case (workload.Case.Digest)",
						pass.Pkg.Path)
				}
			case *ast.CallExpr:
				// A call that yields a *memo.Cache[*svclang.Service, V]:
				// memo.New itself, or any helper that builds one.
				if p, ok := info.TypeOf(n).(*types.Pointer); ok {
					if c := namedIn(p.Elem(), pass.Prog.ModulePath+"/internal/memo", "Cache"); c != nil && isService(c.TypeArgs().At(0)) {
						pass.Reportf(n.Pos(),
							"package %s builds a memo.Cache keyed by *svclang.Service; key per-body tables by the case's digest (workload.Case.Digest)",
							pass.Pkg.Path)
					}
				}
			}
			return true
		})
	}
}

// inPackageSet reports whether the pass's unit is one of the given
// module-relative package paths.
func inPackageSet(pass *Pass, rels []string) bool {
	for _, rel := range rels {
		if pass.Pkg.Path == pass.Prog.ModulePath+"/"+rel {
			return true
		}
	}
	return false
}

// isPkgFunc reports whether sel resolves to one of the named
// package-level functions of the given import path.
func isPkgFunc(info *types.Info, sel *ast.SelectorExpr, pkgPath string, names ...string) bool {
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	if obj.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}

// staticCallee resolves a call expression to the function or method it
// statically invokes. Calls through interfaces, function values,
// builtins and conversions return nil: without a points-to analysis
// their target is unknown, and the analyzers here stay conservative.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return fn
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return namedIn(t, "context", "Context") != nil }

// namedIn returns t as the named type pkgPath.name, or nil if it is
// another type.
func namedIn(t types.Type, pkgPath, name string) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pkgPath || named.Obj().Name() != name {
		return nil
	}
	return named
}

// isNil reports whether e is the predeclared nil identifier.
func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// funcDisplayName renders a function or method name for messages.
func funcDisplayName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		if i := strings.LastIndex(fn.Pkg().Path(), "/"); i >= 0 {
			return fn.Pkg().Path()[i+1:] + "." + fn.Name()
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}
