package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/workload"
)

// faultySuite wraps every base tool with the same fault-injection
// config. Wrappers carry per-campaign state (transient counters), so
// callers build a fresh suite per run.
func faultySuite(t *testing.T, base []detectors.Tool, cfg faulty.Config) []detectors.Tool {
	t.Helper()
	out := make([]detectors.Tool, len(base))
	for i, tool := range base {
		w, err := faulty.Wrap(tool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = w
	}
	return out
}

// silentTool reports nothing; it exists to be wrapped with always-on
// faults without colliding with a standard tool's name.
type silentTool struct{ name string }

func (s silentTool) Name() string           { return s.name }
func (s silentTool) Class() detectors.Class { return detectors.ClassSAST }
func (s silentTool) Analyze(workload.Case, *stats.RNG) ([]detectors.Report, error) {
	return nil, nil
}

// TestRunCtxFaultyEquivalence extends the worker-pool admissibility
// proof to degraded campaigns: with deterministic fault injection the
// parallel engine must produce byte-identical campaigns — outcomes,
// matrices AND execution ledgers — for every seed and worker count.
func TestRunCtxFaultyEquivalence(t *testing.T) {
	corpus := testCorpus(t, 30, 3)
	base := testTools(t)
	if len(base) > 3 {
		base = base[:3]
	}
	scenarios := []struct {
		name   string
		mode   faulty.Mode
		policy DegradedPolicy
		retry  RetryPolicy
	}{
		{"panic-skip", faulty.ModePanic, DegradedSkip, RetryPolicy{}},
		{"panic-countmiss", faulty.ModePanic, DegradedCountMiss, RetryPolicy{}},
		{"byzantine-skip", faulty.ModeByzantine, DegradedSkip, RetryPolicy{}},
		{"transient-retry", faulty.ModeTransient, DegradedSkip, RetryPolicy{MaxRetries: 1}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 42} {
				runOnce := func(workers int) *Campaign {
					tools := faultySuite(t, base, faulty.Config{Mode: sc.mode, Rate: 0.25, Seed: seed})
					camp, err := RunCtx(context.Background(), corpus, tools,
						Options{Seed: seed, Workers: workers, Retry: sc.retry, Degraded: sc.policy})
					if err != nil {
						t.Fatal(err)
					}
					return camp
				}
				serial := runOnce(1)
				var failed, retries int
				for _, res := range serial.Results {
					failed += res.Exec.Failed
					retries += res.Exec.Retries
					if err := res.Exec.Reconcile(); err != nil {
						t.Fatalf("seed %d: %s ledger: %v", seed, res.Tool, err)
					}
				}
				switch sc.mode {
				case faulty.ModePanic:
					if failed == 0 {
						t.Fatalf("seed %d: no cell failed at rate 0.25; scenario tests nothing", seed)
					}
				case faulty.ModeTransient:
					if retries == 0 || failed != 0 {
						t.Fatalf("seed %d: retries=%d failed=%d, want recovery via retry", seed, retries, failed)
					}
				}
				for _, workers := range []int{2, 4, 13} {
					if par := runOnce(workers); !reflect.DeepEqual(serial, par) {
						t.Fatalf("seed %d workers %d: degraded campaign diverged from serial (ledgers included)",
							seed, workers)
					}
				}
			}
		})
	}
}

// TestRunCtxPanicIsolationSkip: a tool that always panics fails every
// cell, the campaign still completes, and the healthy tool's result is
// byte-identical to a run without the broken neighbour.
func TestRunCtxPanicIsolationSkip(t *testing.T) {
	corpus := testCorpus(t, 20, 2)
	base := testTools(t)
	healthy, inner := base[0], base[1]
	wrapped, err := faulty.Wrap(inner, faulty.Config{Mode: faulty.ModePanic, Rate: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := RunCtx(context.Background(), corpus, []detectors.Tool{healthy, wrapped},
		Options{Seed: 5, Workers: 4, Degraded: DegradedSkip})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := runSeed(corpus, []detectors.Tool{healthy, inner}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(camp.Results[0], baseline.Results[0]) {
		t.Error("healthy tool's result changed because a neighbour panicked")
	}
	broken := camp.Results[1]
	n := len(corpus.Cases)
	if broken.Exec.Cases != n || broken.Exec.Failed != n || broken.Exec.RecoveredPanics != n ||
		broken.Exec.Succeeded != 0 || len(broken.Outcomes) != 0 {
		t.Fatalf("broken-tool ledger under skip: %+v", broken.Exec)
	}
	if err := broken.Exec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	for i, fault := range broken.Exec.Faults {
		if fault.Kind != FailPanic || !strings.Contains(fault.Msg, "injected panic") {
			t.Fatalf("fault %d = %+v, want recovered panic", i, fault)
		}
		if fault.Case != broken.Exec.FailedCases[i] {
			t.Fatalf("fault %d case %d does not match FailedCases entry %d",
				i, fault.Case, broken.Exec.FailedCases[i])
		}
	}
}

// TestRunCtxCountMissScoresMisses: under count-as-miss every sink of a
// failed case is scored unflagged, so a totally broken tool yields a
// full-length outcome vector of degraded false negatives / true
// negatives rather than an empty matrix.
func TestRunCtxCountMissScoresMisses(t *testing.T) {
	corpus := testCorpus(t, 20, 2)
	wrapped, err := faulty.Wrap(testTools(t)[0], faulty.Config{Mode: faulty.ModePanic, Rate: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := RunCtx(context.Background(), corpus, []detectors.Tool{wrapped},
		Options{Seed: 5, Workers: 2, Degraded: DegradedCountMiss})
	if err != nil {
		t.Fatal(err)
	}
	res := camp.Results[0]
	if len(res.Outcomes) != corpus.TotalSinks() {
		t.Fatalf("count-miss outcomes = %d, want every sink (%d)", len(res.Outcomes), corpus.TotalSinks())
	}
	var vulnerable int
	for _, o := range res.Outcomes {
		if !o.Degraded || o.Flagged || o.Confidence != 0 {
			t.Fatalf("synthesized outcome not a degraded miss: %+v", o)
		}
		if o.Vulnerable {
			vulnerable++
		}
	}
	if res.Overall.TP != 0 || res.Overall.FP != 0 ||
		res.Overall.FN != vulnerable || res.Overall.TN != corpus.TotalSinks()-vulnerable {
		t.Fatalf("count-miss confusion matrix = %+v", res.Overall)
	}
}

// TestRunCtxDeadlineTimesOutHangs: a context-aware hanging tool under a
// per-tool deadline fails every cell with FailTimeout and a
// configuration-only error text; the campaign completes.
func TestRunCtxDeadlineTimesOutHangs(t *testing.T) {
	corpus := testCorpus(t, 6, 2)
	hang, err := faulty.Wrap(silentTool{name: "always-hangs"}, faulty.Config{Mode: faulty.ModeHang, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := RunCtx(context.Background(), corpus, []detectors.Tool{hang},
		Options{Seed: 1, Workers: 3, PerToolTimeout: 100 * time.Millisecond, Degraded: DegradedSkip})
	if err != nil {
		t.Fatal(err)
	}
	res := camp.Results[0]
	if res.Exec.Timeouts != len(corpus.Cases) || res.Exec.Failed != len(corpus.Cases) {
		t.Fatalf("hang ledger: %+v", res.Exec)
	}
	for _, fault := range res.Exec.Faults {
		if fault.Kind != FailTimeout || !strings.Contains(fault.Msg, "deadline 100ms exceeded") {
			t.Fatalf("fault = %+v, want deterministic timeout record", fault)
		}
	}
}

// TestRunCtxRetryRecoversTransient: a flaky tool that fails once per
// case recovers under MaxRetries=1 with outcomes byte-identical to the
// fault-free baseline (retries replay the same RNG draws), and fails
// permanently without a retry budget.
func TestRunCtxRetryRecoversTransient(t *testing.T) {
	corpus := testCorpus(t, 15, 2)
	inner := testTools(t)[0]
	baseline, err := runSeed(corpus, []detectors.Tool{inner}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrap := func() detectors.Tool {
		w, err := faulty.Wrap(inner, faulty.Config{Mode: faulty.ModeTransient, Rate: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	camp, err := RunCtx(context.Background(), corpus, []detectors.Tool{wrap()},
		Options{Seed: 5, Workers: 4, Retry: RetryPolicy{MaxRetries: 1}, Degraded: DegradedSkip})
	if err != nil {
		t.Fatal(err)
	}
	res := camp.Results[0]
	n := len(corpus.Cases)
	if res.Exec.Succeeded != n || res.Exec.Retries != n || res.Exec.Attempts != 2*n {
		t.Fatalf("retry ledger: %+v", res.Exec)
	}
	if !reflect.DeepEqual(res.Outcomes, baseline.Results[0].Outcomes) || res.Overall != baseline.Results[0].Overall {
		t.Error("recovered campaign is not byte-identical to the fault-free baseline")
	}
	// Without a retry budget the same tool fails every cell with a
	// retryable-but-unretried error.
	starved, err := RunCtx(context.Background(), corpus, []detectors.Tool{wrap()},
		Options{Seed: 5, Workers: 4, Degraded: DegradedSkip})
	if err != nil {
		t.Fatal(err)
	}
	if got := starved.Results[0].Exec; got.Failed != n || got.Errors != n || got.Retries != 0 {
		t.Fatalf("starved ledger: %+v", got)
	}
}

// TestRunCtxAbortPolicy: the zero-value policy keeps the historical
// fail-fast contract for both the serial and parallel paths.
func TestRunCtxAbortPolicy(t *testing.T) {
	corpus := testCorpus(t, 10, 2)
	for _, workers := range []int{1, 4} {
		wrapped, err := faulty.Wrap(testTools(t)[0], faulty.Config{Mode: faulty.ModePanic, Rate: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		camp, err := RunCtx(context.Background(), corpus, []detectors.Tool{wrapped},
			Options{Seed: 5, Workers: workers})
		if err == nil || camp != nil {
			t.Fatalf("workers=%d: abort policy returned camp=%v err=%v", workers, camp, err)
		}
		if !strings.Contains(err.Error(), "injected panic") {
			t.Fatalf("workers=%d: abort error lost the cause: %v", workers, err)
		}
	}
}

// TestRunCtxParallelAbortReturnsSerialError: under DegradedAbort with
// faults on several tools and cases, every worker count returns exactly
// the error serial execution returns — that of the earliest failed cell
// in (tool, case) order, not of whichever failed cell a worker hit
// first.
func TestRunCtxParallelAbortReturnsSerialError(t *testing.T) {
	corpus := testCorpus(t, 30, 2)
	base := testTools(t)[:3]
	abort := func(workers int) string {
		tools := faultySuite(t, base, faulty.Config{Mode: faulty.ModePanic, Rate: 0.3, Seed: 11})
		camp, err := RunCtx(context.Background(), corpus, tools, Options{Seed: 5, Workers: workers})
		if err == nil || camp != nil {
			t.Fatalf("workers=%d: abort policy returned camp=%v err=%v", workers, camp, err)
		}
		return err.Error()
	}
	want := abort(1)
	for _, workers := range []int{2, 4, 13} {
		for rep := 0; rep < 5; rep++ {
			if got := abort(workers); got != want {
				t.Fatalf("workers=%d: abort error\n%s\nwant the serial\n%s", workers, got, want)
			}
		}
	}
}

// cancelingTool cancels the campaign context after a fixed number of
// successful cases — a deterministic stand-in for an external DELETE.
type cancelingTool struct {
	detectors.Tool
	cancel context.CancelFunc
	after  int

	mu    sync.Mutex
	calls int
}

func (c *cancelingTool) Analyze(cs workload.Case, rng *stats.RNG) ([]detectors.Report, error) {
	c.mu.Lock()
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
	c.mu.Unlock()
	return c.Tool.Analyze(cs, rng)
}

// TestRunCtxCancellation: a canceled context aborts the campaign — both
// up front and mid-run — with an error that unwraps to context.Canceled.
func TestRunCtxCancellation(t *testing.T) {
	corpus := testCorpus(t, 10, 2)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		camp, err := RunCtx(ctx, corpus, testTools(t), Options{Seed: 5, Workers: workers})
		if camp != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: pre-canceled run: camp=%v err=%v", workers, camp, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tool := &cancelingTool{Tool: testTools(t)[0], cancel: cancel, after: 3}
	camp, err := RunCtx(ctx, corpus, []detectors.Tool{tool}, Options{Seed: 5, Workers: 1})
	if camp != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: camp=%v err=%v", camp, err)
	}
}

// TestLedgerReconcileProperty sweeps modes, rates and retry budgets and
// demands that every resulting ledger reconciles and agrees with the
// outcome vectors — the accounting invariants the ISSUE pins.
func TestLedgerReconcileProperty(t *testing.T) {
	corpus := testCorpus(t, 25, 4)
	base := testTools(t)
	if len(base) > 2 {
		base = base[:2]
	}
	for _, mode := range []faulty.Mode{faulty.ModePanic, faulty.ModeTransient} {
		for _, rate := range []float64{0, 0.1, 0.3, 1} {
			for _, retries := range []int{0, 1} {
				for _, policy := range []DegradedPolicy{DegradedSkip, DegradedCountMiss} {
					name := fmt.Sprintf("%s/r%g/retry%d/%s", mode, rate, retries, policy)
					tools := faultySuite(t, base, faulty.Config{Mode: mode, Rate: rate, Seed: 8})
					camp, err := RunCtx(context.Background(), corpus, tools,
						Options{Seed: 6, Workers: 4, Retry: RetryPolicy{MaxRetries: retries}, Degraded: policy})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, res := range camp.Results {
						l := res.Exec
						if err := l.Reconcile(); err != nil {
							t.Fatalf("%s: %s: %v", name, res.Tool, err)
						}
						if l.Cases != len(corpus.Cases) {
							t.Fatalf("%s: %s scheduled on %d cases, want %d", name, res.Tool, l.Cases, len(corpus.Cases))
						}
						for i, fault := range l.Faults {
							if fault.Case != l.FailedCases[i] || fault.Tool != res.Tool {
								t.Fatalf("%s: fault %d inconsistent: %+v", name, i, fault)
							}
						}
						var degraded int
						for _, o := range res.Outcomes {
							if o.Degraded {
								degraded++
							}
						}
						if policy == DegradedCountMiss {
							if len(res.Outcomes) != corpus.TotalSinks() {
								t.Fatalf("%s: count-miss dropped sinks (%d of %d)", name, len(res.Outcomes), corpus.TotalSinks())
							}
							if l.Failed == 0 && degraded != 0 {
								t.Fatalf("%s: degraded outcomes without failures", name)
							}
						} else if degraded != 0 {
							t.Fatalf("%s: skip policy produced %d degraded outcomes", name, degraded)
						}
					}
				}
			}
		}
	}
}

// TestRunCtxAcceptance is the PR's acceptance scenario: the standard
// suite plus an always-panicking tool and an always-hanging tool under a
// 100ms deadline. The campaign completes with partial results, every
// ledger reconciles, the process-wide fault totals advance, and no
// goroutines leak.
func TestRunCtxAcceptance(t *testing.T) {
	corpus := testCorpus(t, 25, 5)
	standard := testTools(t)
	panicky, err := faulty.Wrap(silentTool{name: "always-panics"}, faulty.Config{Mode: faulty.ModePanic, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	hang, err := faulty.Wrap(silentTool{name: "always-hangs"}, faulty.Config{Mode: faulty.ModeHang, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	tools := append(append([]detectors.Tool{}, standard...), panicky, hang)

	before := ExecTotalsSnapshot()
	goroutinesBefore := runtime.NumGoroutine()
	camp, err := RunCtx(context.Background(), corpus, tools,
		Options{Seed: 7, Workers: 4, PerToolTimeout: 100 * time.Millisecond, Degraded: DegradedSkip})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Results) != len(standard)+2 {
		t.Fatalf("got %d results, want %d", len(camp.Results), len(standard)+2)
	}
	n := len(corpus.Cases)
	for i, res := range camp.Results {
		if err := res.Exec.Reconcile(); err != nil {
			t.Fatalf("%s ledger: %v", res.Tool, err)
		}
		switch res.Tool {
		case "always-panics":
			if res.Exec.RecoveredPanics != n || res.Exec.Succeeded != 0 {
				t.Fatalf("panic tool ledger: %+v", res.Exec)
			}
		case "always-hangs":
			if res.Exec.Timeouts != n || res.Exec.Succeeded != 0 {
				t.Fatalf("hang tool ledger: %+v", res.Exec)
			}
		default:
			if res.Exec.Succeeded != n || res.Exec.Failed != 0 {
				t.Fatalf("healthy tool %s degraded: %+v", res.Tool, res.Exec)
			}
			if len(res.Outcomes) != corpus.TotalSinks() {
				t.Fatalf("healthy tool %s lost outcomes (%d of %d)", res.Tool, len(res.Outcomes), corpus.TotalSinks())
			}
		}
		_ = i
	}
	after := ExecTotalsSnapshot()
	if after.RecoveredPanics-before.RecoveredPanics != uint64(n) {
		t.Errorf("process panic total advanced by %d, want %d", after.RecoveredPanics-before.RecoveredPanics, n)
	}
	if after.Timeouts-before.Timeouts != uint64(n) {
		t.Errorf("process timeout total advanced by %d, want %d", after.Timeouts-before.Timeouts, n)
	}
	// Zero goroutine leaks: the hang wrapper is context-aware, so every
	// deadline expiry returns its goroutine. Allow the runtime a moment
	// to park helpers.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunCtxNilContextAndValidation covers the defensive paths of the
// context-first entry point.
func TestRunCtxNilContextAndValidation(t *testing.T) {
	corpus := testCorpus(t, 5, 1)
	tools := testTools(t)
	//lint:ignore SA1012 deliberate nil-context robustness check
	if _, err := RunCtx(nil, corpus, tools, Options{Seed: 1, Workers: 1}); err != nil { //nolint:staticcheck
		t.Fatalf("nil context rejected: %v", err)
	}
	bad := []Options{
		{PerToolTimeout: -time.Second},
		{Retry: RetryPolicy{MaxRetries: -1}},
		{Retry: RetryPolicy{Backoff: -time.Second}},
		{Degraded: DegradedPolicy(42)},
	}
	for _, opts := range bad {
		if _, err := RunCtx(context.Background(), corpus, tools, opts); err == nil {
			t.Errorf("options %+v accepted", opts)
		}
	}
}
