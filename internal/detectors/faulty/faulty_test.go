package faulty

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// stubTool is a deterministic inner tool: it reports every vulnerable
// sink of the case with fixed confidence.
type stubTool struct{ name string }

func (s stubTool) Name() string           { return s.name }
func (s stubTool) Class() detectors.Class { return detectors.ClassSAST }

func (s stubTool) Analyze(cs workload.Case, _ *stats.RNG) ([]detectors.Report, error) {
	var out []detectors.Report
	for _, tr := range cs.Truths {
		if tr.Vulnerable {
			out = append(out, detectors.Report{
				Service: cs.Service.Name, SinkID: tr.SinkID, Kind: tr.Kind, Confidence: 0.8,
			})
		}
	}
	return out, nil
}

func testCases(t *testing.T, services int) []workload.Case {
	t.Helper()
	c, err := workload.Generate(workload.Config{Services: services, TargetPrevalence: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return c.Cases
}

func mustWrap(t *testing.T, cfg Config) detectors.Tool {
	t.Helper()
	w, err := Wrap(stubTool{name: "stub"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWrapValidation(t *testing.T) {
	if _, err := Wrap(nil, Config{Mode: ModePanic}); err == nil {
		t.Error("nil inner accepted")
	}
	bad := []Config{
		{Mode: 0},
		{Mode: Mode(99)},
		{Mode: ModePanic, Rate: -0.1},
		{Mode: ModePanic, Rate: 1.5},
		{Mode: ModeTransient, FailuresBeforeSuccess: -1},
	}
	for _, cfg := range bad {
		if _, err := Wrap(stubTool{name: "s"}, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestWrapperForwardsIdentity(t *testing.T) {
	w := mustWrap(t, Config{Mode: ModePanic, Rate: 0.5})
	if w.Name() != "stub" || w.Class() != detectors.ClassSAST {
		t.Fatalf("wrapper identity = %s/%v, want stub/SAST", w.Name(), w.Class())
	}
}

// TestAffectedDeterministicAndRateNested is the placement contract:
// whether a service is affected depends only on (Seed, tool, service),
// and the affected set at a lower rate is a subset of every higher rate,
// so E18's sweeps degrade the same cases as the rate grows.
func TestAffectedDeterministicAndRateNested(t *testing.T) {
	cases := testCases(t, 60)
	rates := []float64{0.01, 0.05, 0.10, 0.20, 0.30, 1}
	affectedAt := make([]map[string]bool, len(rates))
	for i, rate := range rates {
		w := mustWrap(t, Config{Mode: ModePanic, Rate: rate, Seed: 42}).(*tool)
		set := map[string]bool{}
		// Query in two different orders: the answer must not change.
		for _, cs := range cases {
			if w.affected(cs.Service.Name) {
				set[cs.Service.Name] = true
			}
		}
		for j := len(cases) - 1; j >= 0; j-- {
			if set[cases[j].Service.Name] != w.affected(cases[j].Service.Name) {
				t.Fatalf("rate %g: affected(%s) changed between calls", rate, cases[j].Service.Name)
			}
		}
		affectedAt[i] = set
	}
	if len(affectedAt[len(rates)-1]) != len(cases) {
		t.Fatalf("rate 1 affected %d of %d services", len(affectedAt[len(rates)-1]), len(cases))
	}
	for i := 1; i < len(rates); i++ {
		for svc := range affectedAt[i-1] {
			if !affectedAt[i][svc] {
				t.Fatalf("service %s affected at rate %g but not at %g (sets must nest)",
					svc, rates[i-1], rates[i])
			}
		}
	}
	// A different seed must place faults elsewhere (with overwhelming
	// probability at these sizes).
	other := mustWrap(t, Config{Mode: ModePanic, Rate: 0.3, Seed: 43}).(*tool)
	same := true
	for _, cs := range cases {
		w := mustWrap(t, Config{Mode: ModePanic, Rate: 0.3, Seed: 42}).(*tool)
		if w.affected(cs.Service.Name) != other.affected(cs.Service.Name) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical fault placement")
	}
}

func TestModePanicPanicsOnAffectedCase(t *testing.T) {
	cases := testCases(t, 10)
	w := mustWrap(t, Config{Mode: ModePanic, Rate: 1})
	defer func() {
		if recover() == nil {
			t.Error("affected case did not panic")
		}
	}()
	_, _ = w.Analyze(cases[0], stats.NewRNG(1))
}

func TestModeHangReturnsOnCancel(t *testing.T) {
	cases := testCases(t, 10)
	w := mustWrap(t, Config{Mode: ModeHang, Rate: 1}).(*tool)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := w.AnalyzeContext(ctx, cases[0], stats.NewRNG(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("hang under canceled context returned %v", err)
	}
}

func TestModeTransientFailsThenRecovers(t *testing.T) {
	cases := testCases(t, 10)
	w := mustWrap(t, Config{Mode: ModeTransient, Rate: 1, FailuresBeforeSuccess: 2}).(*tool)
	rng := stats.NewRNG(1)
	for attempt := 1; attempt <= 2; attempt++ {
		_, err := w.Analyze(cases[0], rng)
		if err == nil || !detectors.IsRetryable(err) {
			t.Fatalf("attempt %d: err = %v, want retryable", attempt, err)
		}
		if !strings.Contains(err.Error(), "transient") {
			t.Fatalf("attempt %d error text: %v", attempt, err)
		}
	}
	reports, err := w.Analyze(cases[0], rng)
	if err != nil {
		t.Fatalf("attempt 3: %v", err)
	}
	want, _ := stubTool{name: "stub"}.Analyze(cases[0], stats.NewRNG(1))
	if len(reports) != len(want) {
		t.Fatalf("recovered attempt returned %d reports, want %d", len(reports), len(want))
	}
	// Other services keep independent counters.
	if _, err := w.Analyze(cases[1], rng); err == nil || !detectors.IsRetryable(err) {
		t.Fatalf("fresh service first attempt err = %v, want retryable", err)
	}
}

// TestModeByzantineComplements: the byzantine wrapper reports exactly
// the sinks the inner tool stayed silent on, and surfaces no error — the
// failure mode no ledger can record.
func TestModeByzantineComplements(t *testing.T) {
	cases := testCases(t, 10)
	w := mustWrap(t, Config{Mode: ModeByzantine, Rate: 1})
	cs := cases[0]
	honest, _ := stubTool{name: "stub"}.Analyze(cs, stats.NewRNG(1))
	lying, err := w.Analyze(cs, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(honest)+len(lying) != len(cs.Truths) {
		t.Fatalf("complement sizes: honest %d + byzantine %d != %d sinks",
			len(honest), len(lying), len(cs.Truths))
	}
	reported := map[int]bool{}
	for _, r := range honest {
		reported[r.SinkID] = true
	}
	for _, r := range lying {
		if reported[r.SinkID] {
			t.Fatalf("byzantine wrapper repeated honest report for sink %d", r.SinkID)
		}
		if r.Service != cs.Service.Name {
			t.Fatalf("byzantine report names service %q", r.Service)
		}
	}
}

func TestUnaffectedCasesDelegate(t *testing.T) {
	cases := testCases(t, 40)
	w := mustWrap(t, Config{Mode: ModePanic, Rate: 0.2, Seed: 7}).(*tool)
	delegated := 0
	for _, cs := range cases {
		if w.affected(cs.Service.Name) {
			continue
		}
		got, err := w.Analyze(cs, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("unaffected case errored: %v", err)
		}
		want, _ := stubTool{name: "stub"}.Analyze(cs, stats.NewRNG(1))
		if len(got) != len(want) {
			t.Fatalf("unaffected case: %d reports, want %d", len(got), len(want))
		}
		delegated++
	}
	if delegated == 0 {
		t.Fatal("rate 0.2 affected every case; placement hash is broken")
	}
}

// TestWrapperForwardsExecEngine: a wrapped dynamic tool must execute
// through the engine the campaign binds, not the private engine it was
// constructed with; a wrapped static tool has nothing to rebind.
func TestWrapperForwardsExecEngine(t *testing.T) {
	suite, err := detectors.StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	var dynamic detectors.Tool
	for _, tl := range suite {
		if tl.Name() == "pt-deep" {
			dynamic = tl
		}
	}
	if dynamic == nil {
		t.Fatal("standard suite has no pt-deep")
	}
	w, err := Wrap(dynamic, Config{Mode: ModePanic})
	if err != nil {
		t.Fatal(err)
	}
	eng := compile.NewEngine()
	bound := w.(detectors.ExecEngineBindable).WithExecEngine(eng)
	if bound == w {
		t.Fatal("WithExecEngine returned the unbound wrapper")
	}
	if _, err := bound.Analyze(testCases(t, 5)[0], stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := eng.Stats(); hits+misses == 0 {
		t.Error("wrapped pt-deep did not execute through the bound engine")
	}

	static := mustWrap(t, Config{Mode: ModePanic})
	if got := static.(detectors.ExecEngineBindable).WithExecEngine(eng); got != static {
		t.Error("wrapper of a non-executing tool was rebuilt by WithExecEngine")
	}
}

// perCallAffected is the placement decision as it was computed before
// the seed and tool name were folded into the wrapper: the whole FNV-1a
// hash of (Seed, tool name, service name) on every call.
func perCallAffected(seed uint64, toolName, service string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // separator so ("ab","c") != ("a","bc")
		h *= prime64
	}
	for shift := 0; shift < 64; shift += 8 {
		h ^= (seed >> shift) & 0xff
		h *= prime64
	}
	mix(toolName)
	mix(service)
	return float64(h>>11)/(1<<53) < rate
}

// bindableStub is a stubTool that the campaign engines rebind: each
// binding returns a fresh copy, so the wrapper is rebuilt around it.
type bindableStub struct{ stubTool }

func (b bindableStub) WithExecEngine(*compile.Engine) detectors.Tool { return bindableStub{b.stubTool} }
func (b bindableStub) WithCompileCache(*cfg.Cache) detectors.Tool    { return bindableStub{b.stubTool} }

// TestAffectedMatchesPerCallHash pins fault placement to the per-call
// hash over many (seed, tool, service) triples, for wrappers built by
// Wrap and by the engine-binding rewraps, at the rates E18 sweeps. The
// tool names include a prefix pair whose concatenation with the service
// name collides without the separator.
func TestAffectedMatchesPerCallHash(t *testing.T) {
	cases := testCases(t, 40)
	services := []string{"", "c", "bc"}
	for _, cs := range cases {
		services = append(services, cs.Service.Name)
	}
	tools := []string{"", "a", "ab", "stub", "pt-deep", "ts-aggressive"}
	seeds := []uint64{0, 1, 42, 1 << 63, 0xdeadbeefcafef00d}
	for _, seed := range seeds {
		for _, name := range tools {
			for _, rate := range []float64{0, 0.05, 0.3, 0.5, 1} {
				w, err := Wrap(bindableStub{stubTool{name: name}}, Config{Mode: ModePanic, Rate: rate, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				wrappers := []*tool{
					w.(*tool),
					w.(*tool).WithExecEngine(nil).(*tool),
					w.(*tool).WithCompileCache(nil).(*tool),
				}
				if wrappers[1] == wrappers[0] || wrappers[2] == wrappers[0] {
					t.Fatal("binding did not rebuild the wrapper")
				}
				for _, svc := range services {
					want := perCallAffected(seed, name, svc, rate)
					for k, wt := range wrappers {
						if got := wt.affected(svc); got != want {
							t.Fatalf("seed %d tool %q service %q rate %g (wrapper %d): affected %v, want %v", seed, name, svc, rate, k, got, want)
						}
					}
				}
			}
		}
	}
}
