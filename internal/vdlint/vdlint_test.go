package vdlint

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/dsn2015/vdbench/internal/workpool"
)

// writeModule materialises a fixture module from a map of relative path
// to file contents and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const fixtureGomod = "module example.com/fix\n\ngo 1.22\n"

// sharedExports computes the repo's export-data table once and shares it
// across every fixture load; fixture imports are stdlib-only, so the
// table resolves them all without per-fixture `go list` subprocesses.
var (
	exportsOnce sync.Once
	exportsTab  map[string]string
	exportsErr  error
)

func fixtureOptions(t *testing.T) LoadOptions {
	t.Helper()
	exportsOnce.Do(func() {
		exportsTab, exportsErr = GoListExports(filepath.Join("..", ".."))
	})
	if exportsErr != nil {
		t.Logf("go list -export unavailable (%v); fixtures fall back to the source importer", exportsErr)
		return LoadOptions{Importer: "source"}
	}
	return LoadOptions{Exports: exportsTab}
}

// loadFixture loads a fixture module with the shared export table.
func loadFixture(t *testing.T, root string) *Program {
	t.Helper()
	prog, err := LoadWith(root, fixtureOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// mustRun runs the analyzers and fails the test on driver error.
func mustRun(t *testing.T, prog *Program, analyzers []*Analyzer, opts Options) []Diagnostic {
	t.Helper()
	diags, err := Run(prog, analyzers, opts)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func joinMessages(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestLoadSplitsUnits(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                         fixtureGomod,
		"a.go":                           "package fix\n",
		"internal/x/x.go":                "package x\nfunc inside() int { return 1 }\n",
		"internal/x/x_test.go":           "package x\nimport \"testing\"\nfunc TestIn(t *testing.T) { _ = inside() }\n",
		"internal/x/ext_test.go":         "package x_test\nimport \"testing\"\nfunc TestExt(t *testing.T) {}\n",
		"internal/x/testdata/ignored.go": "this is not Go and must be skipped\n",
	})
	prog := loadFixture(t, root)
	if prog.ModulePath != "example.com/fix" {
		t.Fatalf("module path = %q", prog.ModulePath)
	}
	var got []string
	for _, u := range prog.Packages {
		got = append(got, u.Path+":"+u.Kind.String())
	}
	want := []string{
		"example.com/fix:primary",
		"example.com/fix/internal/x:primary",
		"example.com/fix/internal/x:test",
		"example.com/fix/internal/x_test:external-test",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("units = %v, want %v", got, want)
	}
	aug := prog.Packages[2]
	if len(aug.Files) != 2 || len(aug.Owned) != 1 {
		t.Fatalf("augmented unit: files=%d owned=%d, want 2/1", len(aug.Files), len(aug.Owned))
	}
	budget := newTestBudget()
	if err := prog.EnsureTyped(budget); err != nil {
		t.Fatal(err)
	}
	// The external test unit's import of x must resolve to the primary's
	// types.Package, not a re-check.
	ext := prog.Packages[3]
	for _, imp := range ext.Types.Imports() {
		if imp.Path() == "example.com/fix/internal/x" && imp != prog.Packages[1].Types {
			t.Fatal("external test re-checked the package under test instead of importing the primary unit")
		}
	}
}

func TestLoadSkipsBuildConstrainedFiles(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"a.go":   "package fix\nconst A = 1\n",
		"excluded.go": `//go:build neverever

package fix

const A = 2 // would collide with a.go if the constraint were ignored
`,
	})
	prog := loadFixture(t, root)
	if n := len(prog.Packages[0].Files); n != 1 {
		t.Fatalf("parsed %d files, want 1 (constraint-excluded file skipped)", n)
	}
	if err := prog.EnsureTyped(newTestBudget()); err != nil {
		t.Fatalf("type check failed, so the excluded file leaked in: %v", err)
	}
}

// TestLoadExternalTestReachesExportTest: the export_test.go idiom — an
// external test using a symbol an in-package test file exports — falls
// back to the test-augmented unit and type-checks.
func TestLoadExternalTestReachesExportTest(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                    fixtureGomod,
		"internal/x/x.go":           "package x\nfunc hidden() int { return 1 }\n",
		"internal/x/export_test.go": "package x\nvar Hidden = hidden\n",
		"internal/x/ext_test.go":    "package x_test\nimport (\n\t\"testing\"\n\t\"example.com/fix/internal/x\"\n)\nfunc TestExt(t *testing.T) { _ = x.Hidden() }\n",
	})
	prog := loadFixture(t, root)
	if err := prog.EnsureTyped(newTestBudget()); err != nil {
		t.Fatalf("export_test.go idiom did not type-check: %v", err)
	}
	ext := prog.Packages[2]
	for _, imp := range ext.Types.Imports() {
		if imp.Path() == "example.com/fix/internal/x" && imp != prog.Packages[1].Types {
			t.Fatal("external test did not resolve to the test-augmented unit")
		}
	}
}

func TestLoadRejectsTestImportDiamond(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":               fixtureGomod,
		"internal/a/a.go":      "package a\nfunc A() int { return 1 }\n",
		"internal/a/a_test.go": "package a\nimport \"example.com/fix/internal/b\"\nvar _ = b.B\n",
		"internal/b/b.go":      "package b\nimport \"example.com/fix/internal/a\"\nfunc B() int { return a.A() }\n",
	})
	_, err := LoadWith(root, fixtureOptions(t))
	if err == nil || !strings.Contains(err.Error(), "imports example.com/fix/internal/a back") {
		t.Fatalf("diamond not rejected: err = %v", err)
	}
}

func newTestBudget() *workpool.Budget { return workpool.New(2) }

func TestSortDiagnosticsUsesColumn(t *testing.T) {
	mk := func(file string, line, col int, an, msg string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: file, Line: line, Column: col}, Analyzer: an, Message: msg}
	}
	diags := []Diagnostic{
		mk("b.go", 1, 1, "x", "m"),
		mk("a.go", 2, 9, "x", "m"),
		mk("a.go", 2, 3, "z", "m"),
		mk("a.go", 2, 3, "a", "n"),
		mk("a.go", 2, 3, "a", "m"),
	}
	sortDiagnostics(diags)
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	want := []string{
		"a.go:2:3: [a] m",
		"a.go:2:3: [a] n",
		"a.go:2:3: [z] m",
		"a.go:2:9: [x] m",
		"b.go:1:1: [x] m",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("sorted order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestSelectAnalyzers(t *testing.T) {
	a := &Analyzer{Name: "a", Run: func(*Pass) {}}
	b := &Analyzer{Name: "b", Run: func(*Pass) {}}
	sel, err := selectAnalyzers([]*Analyzer{a, b}, Options{Only: []string{"b"}})
	if err != nil || len(sel) != 1 || sel[0] != b {
		t.Fatalf("Only: sel=%v err=%v", sel, err)
	}
	sel, err = selectAnalyzers([]*Analyzer{a, b}, Options{Skip: []string{"b"}})
	if err != nil || len(sel) != 1 || sel[0] != a {
		t.Fatalf("Skip: sel=%v err=%v", sel, err)
	}
	if _, err = selectAnalyzers([]*Analyzer{a, b}, Options{Only: []string{"nope"}}); err == nil {
		t.Fatal("unknown analyzer in -only not rejected")
	}
	if _, err = selectAnalyzers([]*Analyzer{a, b}, Options{Skip: []string{"a", "b"}}); err == nil {
		t.Fatal("empty selection not rejected")
	}
}

func TestToolWiredFlagsOrphanConstructor(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/detectors/tool.go": `package detectors
type Tool interface{ Name() string }
func NewWired() Tool { return nil }
func NewOrphan() Tool { return nil }
func NewTested() (Tool, error) { return nil, nil }
func NewHelper() int { return 0 } // not a Tool constructor
func StandardSuite() []Tool { return []Tool{NewWired()} }
`,
		"internal/detectors/tool_test.go": `package detectors
import "testing"
func TestTested(t *testing.T) { NewTested() }
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{ToolWired}, Options{})
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the orphan", diags)
	}
	if !strings.Contains(diags[0].Message, "NewOrphan") || diags[0].Analyzer != "toolwired" {
		t.Fatalf("flagged the wrong constructor: %s", diags[0])
	}
}

func TestToolWiredCountsCrossPackageTestUse(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/detectors/tool.go": `package detectors
type Tool interface{ Name() string }
func NewRemote() Tool { return nil }
`,
		"elsewhere_test.go": `package fix
import "example.com/fix/internal/detectors"
import "testing"
func TestRemote(t *testing.T) { detectors.NewRemote() }
`,
	})
	if diags := mustRun(t, loadFixture(t, root), []*Analyzer{ToolWired}, Options{}); len(diags) != 0 {
		t.Fatalf("cross-package test call not recognised: %v", diags)
	}
}

func TestRandImportFlagsOutsideStats(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/stats/rng.go": `package stats
import "math/rand"
var _ = rand.Int
`,
		"internal/bad/bad.go": `package bad
import "math/rand/v2"
var _ = rand.Int
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{RandImport}, Options{})
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the import outside internal/stats", diags)
	}
	if !strings.Contains(diags[0].Message, "internal/bad") || diags[0].Analyzer != "randimport" {
		t.Fatalf("unexpected diagnostic: %s", diags[0])
	}
}

// TestNoDefaultMux exercises the DefaultServeMux analyzer: every way of
// reaching the global mux is flagged in non-test files, renamed imports
// are followed, and explicit-mux code plus test files stay clean.
func TestNoDefaultMux(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"bad/bad.go": `package bad
import "net/http"
func f() {
	http.HandleFunc("/x", nil)
	http.Handle("/y", nil)
	_ = http.DefaultServeMux
	_ = http.ListenAndServe(":0", nil)
	_ = http.ListenAndServeTLS(":0", "c", "k", nil)
}
`,
		"renamed/renamed.go": `package renamed
import web "net/http"
func f() { web.HandleFunc("/x", nil) }
`,
		"clean/clean.go": `package clean
import "net/http"
func f() {
	mux := http.NewServeMux()
	mux.HandleFunc("/x", func(http.ResponseWriter, *http.Request) {})
	_ = http.ListenAndServe(":0", mux)
}
`,
		"exempt/exempt_test.go": `package exempt
import "net/http"
func f() { http.HandleFunc("/x", nil) }
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{NoDefaultMux}, Options{})
	var bad, renamed int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Pos.Filename, "bad/bad.go"):
			bad++
		case strings.Contains(d.Pos.Filename, "renamed/renamed.go"):
			renamed++
		default:
			t.Errorf("false positive: %s", d)
		}
	}
	if bad != 5 {
		t.Errorf("bad.go produced %d findings, want 5:\n%v", bad, diags)
	}
	if renamed != 1 {
		t.Errorf("renamed import not followed (%d findings)", renamed)
	}
}

func TestCtxFirstFlagsBuriedContext(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/harness/h.go": `package harness
import "context"
func RunCtx(ctx context.Context, n int) error { return nil }       // compliant
func Buried(n int, ctx context.Context) error { return nil }       // flagged
func unexported(n int, ctx context.Context) error { return nil }   // unexported: ignored
func NoContext(n int) error { return nil }                         // no context: ignored
type T struct{}
func (T) MethodBuried(name string, ctx context.Context) {}         // exported method: flagged
`,
		"internal/harness/h_test.go": `package harness
import "context"
func HelperBuried(n int, ctx context.Context) {} // test file: ignored
`,
		"internal/report/free.go": `package report
import "context"
func Elsewhere(n int, ctx context.Context) {} // outside the pipeline: ignored
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{CtxFirst}, Options{})
	if len(diags) != 2 {
		t.Fatalf("diagnostics = %v, want Buried and MethodBuried", diags)
	}
	joined := joinMessages(diags)
	for _, want := range []string{"Buried", "MethodBuried"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %s finding in:\n%s", want, joined)
		}
	}
}

func TestCompiledExecFlagsRawInterpreterCalls(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/svclang/lang.go": `package svclang
type Service struct{}
type Request map[string]string
type Result struct{}
func Execute(s *Service, r Request) (Result, error) { return Result{}, nil }
func ExecuteInSession(s *Service, r Request, st *int) (Result, error) { return Result{}, nil }
func Analyze(s *Service) error { return nil }
`,
		"internal/detectors/d.go": `package detectors
import "example.com/fix/internal/svclang"
func probe(s *svclang.Service) {
	svclang.Execute(s, nil)           // flagged
	svclang.ExecuteInSession(s, nil, nil) // flagged
}
`,
		"internal/workload/w.go": `package workload
import "example.com/fix/internal/svclang"
func label(s *svclang.Service) { svclang.Analyze(s) } // flagged
`,
		"internal/detectors/d_test.go": `package detectors
import "example.com/fix/internal/svclang"
func helper(s *svclang.Service) { svclang.Execute(s, nil) } // test file: ignored
`,
		"internal/report/free.go": `package report
import "example.com/fix/internal/svclang"
func outside(s *svclang.Service) { svclang.Execute(s, nil) } // outside the execution path: ignored
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{CompiledExec}, Options{})
	if len(diags) != 3 {
		t.Fatalf("diagnostics = %v, want the three raw calls", diags)
	}
	joined := joinMessages(diags)
	for _, want := range []string{"svclang.Execute", "svclang.ExecuteInSession", "svclang.Analyze"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %s finding in:\n%s", want, joined)
		}
	}
}

func TestCompiledExecIgnoresEngineCalls(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/harness/h.go": `package harness
import "example.com/fix/internal/svclang/compile"
func run(eng *compile.Engine) {
	eng.Execute(nil, nil)       // engine method, not the raw entry point
	eng.ExecuteInSession(nil, nil, nil)
	eng.Analyze(nil)
}
`,
		"internal/svclang/compile/engine.go": `package compile
type Engine struct{}
func (e *Engine) Execute(a, b any) {}
func (e *Engine) ExecuteInSession(a, b, c any) {}
func (e *Engine) Analyze(a any) {}
`,
	})
	if diags := mustRun(t, loadFixture(t, root), []*Analyzer{CompiledExec}, Options{}); len(diags) != 0 {
		t.Fatalf("engine-path calls flagged: %v", diags)
	}
}

// TestDetRandInterprocedural is the case the retired syntactic norawrand
// could not see: the nondeterminism hides behind a wrapper in another
// package, and the taint must flow through the call graph.
func TestDetRandInterprocedural(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/util/clock.go": `package util
import "time"
func Stamp() int64 { return time.Now().UnixNano() } // tainted, but util is not deterministic: no finding here
func Pure(n int) int { return n * 2 }
`,
		"internal/harness/h.go": `package harness
import "example.com/fix/internal/util"
func run() int64 { return util.Stamp() } // flagged: first hop out of determinism
func ok() int   { return util.Pure(3) }
`,
		"internal/stats/s.go": `package stats
import "time"
func direct() { time.Sleep(time.Second) } // flagged: direct source call
func viaLocal() { local() }               // not flagged: local() owns the leak edge
func local() { direct() }                 // not flagged: direct() owns it
`,
		"internal/stats/s_test.go": `package stats
import "time"
var testStart = time.Now() // test file: free
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{DetRand}, Options{})
	if len(diags) != 2 {
		t.Fatalf("diagnostics:\n%swant exactly the harness hop and the direct Sleep", joinMessages(diags))
	}
	joined := joinMessages(diags)
	for _, want := range []string{"util.Stamp, which reaches time.Now", "calls time.Sleep"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in:\n%s", want, joined)
		}
	}
}

func TestDetRandAllowsSeededRand(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/stats/rng.go": `package stats
import "math/rand"
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // explicit seed: deterministic, allowed
	return r.Int()
}
func global() int { return rand.Int() } // global generator: flagged
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{DetRand}, Options{})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "math/rand.Int") {
		t.Fatalf("diagnostics:\n%swant exactly the global rand.Int", joinMessages(diags))
	}
}

func TestDetRandMapIterationOrder(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/stats/m.go": `package stats
import "sort"
func bad(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // flagged: value order is map order
	}
	return out
}
func good(m map[string]int) []int {
	var keys []string
	for k := range m {
		keys = append(keys, k) // allowed: the sorted-keys idiom
	}
	sort.Strings(keys)
	var out []int
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{DetRand}, Options{})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "map-iteration order") {
		t.Fatalf("diagnostics:\n%swant exactly the unsorted append", joinMessages(diags))
	}
}

func TestCtxFlow(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/service/s.go": `package service
import "context"
type job struct {
	ctx  context.Context // flagged: stored context
	name string
}
func handle(ctx context.Context) {
	sub := context.Background() // flagged: severs the caller's context
	_ = sub
}
func entry(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background() // allowed: nil-defaulting the parameter
	}
	_ = ctx
}
func standalone() context.Context {
	return context.Background() // allowed: no inbound context to sever
}
`,
		"internal/service/s_test.go": `package service
import "context"
func helper(ctx context.Context) context.Context {
	return context.Background() // test file: free
}
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{CtxFlow}, Options{})
	if len(diags) != 2 {
		t.Fatalf("diagnostics:\n%swant the stored field and the severing Background", joinMessages(diags))
	}
	joined := joinMessages(diags)
	for _, want := range []string{"struct field stores a context.Context", "discards the caller's cancellation"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in:\n%s", want, joined)
		}
	}
}

func TestLockCopy(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"p/p.go": `package p
import "sync"
type guarded struct {
	mu sync.Mutex
	n  int
}
type wrapper struct{ g guarded }
func byValue(g guarded) {}        // flagged: parameter copies the mutex
func nested(w wrapper) {}         // flagged: transitive
func byPointer(g *guarded) {}     // allowed
func returned() guarded { return guarded{} } // flagged: result copies
func (g guarded) method() {}      // flagged: value receiver copies
func (g *guarded) ok() {}         // allowed
func slices(gs []guarded) {}      // allowed: slice is an indirection
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{LockCopy}, Options{})
	if len(diags) != 4 {
		t.Fatalf("diagnostics:\n%swant byValue, nested, returned, method", joinMessages(diags))
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "sync.Mutex") {
			t.Fatalf("message does not name the lock: %s", d)
		}
	}
}

func TestLeakyGo(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"p/p.go": `package p
import (
	"context"
	"sync"
)
func leak() {
	go func() { // flagged: nothing can stop or observe it
		x := 0
		for {
			x++
		}
	}()
}
func viaChannel(stop chan struct{}) {
	go func() { // allowed: selects on stop
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
}
func viaCtx(ctx context.Context) {
	go func() { // allowed: watches the context
		<-ctx.Done()
	}()
}
func viaWaitGroup(wg *sync.WaitGroup) {
	go func() { // allowed: signals completion
		defer wg.Done()
	}()
}
func worker(jobs chan int) {
	for range jobs {
	}
}
func viaNamedWorker(jobs chan int) {
	go worker(jobs) // allowed: the worker ranges its job channel
}
func spin() { for {} }
func viaNamedLeak() {
	go spin() // flagged: named function with no termination path
}
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{LeakyGo}, Options{})
	if len(diags) != 2 {
		t.Fatalf("diagnostics:\n%swant exactly leak() and viaNamedLeak()", joinMessages(diags))
	}
}

func TestJudgeSyncReportsMissingEntry(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/svclang/lang.go": `package svclang
type SinkKind int
const (
	SinkSQL SinkKind = iota + 1
	SinkXPath
	SinkHTML
)
type Builtin int
const (
	BuiltinConcat Builtin = iota + 1
	BuiltinTrim
	BuiltinUpper
)
type sinkJudge struct{ name string }
type builtinSpec struct{ mode int }
var sinkJudges = [SinkHTML + 1]sinkJudge{
	SinkSQL:   {name: "sql"},
	SinkXPath: {name: "xpath"},
	// SinkHTML missing: must be reported
}
var builtinSpecs = [BuiltinUpper + 1]builtinSpec{
	BuiltinConcat: {mode: 1},
	BuiltinTrim:   {mode: 2},
	BuiltinUpper:  {mode: 3},
}
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{JudgeSync}, Options{})
	if len(diags) != 1 {
		t.Fatalf("diagnostics:\n%swant exactly the SinkHTML coverage gap", joinMessages(diags))
	}
	if !strings.Contains(diags[0].Message, "SinkHTML") || !strings.Contains(diags[0].Message, "sinkJudges") {
		t.Fatalf("wrong gap reported: %s", diags[0])
	}
}

func TestJudgeSyncReportsMissingTable(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/svclang/lang.go": `package svclang
// sinkJudges and builtinSpecs are gone — e.g. renamed in a refactor.
type SinkKind int
const SinkSQL SinkKind = iota + 1
type Builtin int
const BuiltinConcat Builtin = iota + 1
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{JudgeSync}, Options{})
	joined := joinMessages(diags)
	for _, want := range []string{"sinkJudges not found", "builtinSpecs not found"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in:\n%s", want, joined)
		}
	}
}

func TestSuppression(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"internal/bad/bad.go": `package bad
import "math/rand/v2" //vdlint:ignore randimport exercising the suppression machinery
var _ = rand.Int
`,
		"internal/bad/stale.go": `package bad
//vdlint:ignore randimport nothing on the next line triggers this
var x = 1
`,
		"internal/bad/malformed.go": `package bad
//vdlint:ignore randimport
var y = 1
//vdlint:ignore nosuchanalyzer because reasons
var z = 1
`,
	})
	diags := mustRun(t, loadFixture(t, root), []*Analyzer{RandImport}, Options{})
	joined := joinMessages(diags)
	for _, want := range []string{
		"unused vdlint:ignore for randimport",
		"has no reason",
		"unknown analyzer nosuchanalyzer",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in:\n%s", want, joined)
		}
	}
	for _, d := range diags {
		if d.Analyzer == "randimport" {
			t.Fatalf("suppressed finding leaked through: %s", d)
		}
	}
}

func TestSuppressionUnusedNotReportedWhenAnalyzerSkipped(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": fixtureGomod,
		"p/p.go": `package p
//vdlint:ignore detrand the analyzer is not running in this test
var x = 1
`,
	})
	if diags := mustRun(t, loadFixture(t, root), []*Analyzer{RandImport, DetRand}, Options{Only: []string{"randimport"}}); len(diags) != 0 {
		t.Fatalf("unused-suppression reported for an analyzer that did not run: %v", joinMessages(diags))
	}
}

// TestJSONStableAcrossWorkerCounts runs the full suite at one and four
// workers against a fixture with findings in several packages and
// requires byte-identical JSON.
func TestJSONStableAcrossWorkerCounts(t *testing.T) {
	files := map[string]string{
		"go.mod": fixtureGomod,
		"internal/a/a.go": `package a
import "math/rand/v2"
var _ = rand.Int
`,
		"internal/b/b.go": `package b
import "math/rand"
var _ = rand.Int
`,
		"internal/c/c.go": `package c
import "net/http"
func f() { http.HandleFunc("/", nil) }
`,
	}
	root := writeModule(t, files)
	var outputs [][]byte
	for _, workers := range []int{1, 4} {
		prog := loadFixture(t, root)
		diags := mustRun(t, prog, All(), Options{Workers: workers})
		if len(diags) == 0 {
			t.Fatal("fixture produced no findings; the stability test needs some")
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, diags); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.Bytes())
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatalf("JSON differs between workers=1 and workers=4:\n%s\n---\n%s", outputs[0], outputs[1])
	}
	var empty bytes.Buffer
	if err := WriteJSON(&empty, nil); err != nil || empty.String() != "[]\n" {
		t.Fatalf("empty diagnostics = %q, want []\\n", empty.String())
	}
}

// TestRepoSelfCheck runs the full analyzer suite against this module
// itself: the tier-1 gate `go run ./cmd/vdlint -json ./...` must be
// clean.
func TestRepoSelfCheck(t *testing.T) {
	prog, err := LoadWith(filepath.Join("..", ".."), fixtureOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if prog.ModulePath != "github.com/dsn2015/vdbench" {
		t.Fatalf("module path = %q", prog.ModulePath)
	}
	diags := mustRun(t, prog, All(), Options{})
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
