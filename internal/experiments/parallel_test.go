package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metricprop"
)

// tinyConfig is a heavily reduced configuration for the cross-worker
// equality matrix: the full pipeline runs end to end (every driver, every
// table) but with sample counts an order of magnitude below QuickConfig,
// because the matrix reruns it 4 worker counts × 3 seeds.
func tinyConfig(seed uint64, workers int) Config {
	return Config{
		Seed:       seed,
		Services:   30,
		Prevalence: 0.35,
		Prop: metricprop.Config{
			MonotonicitySamples:  60,
			WorkloadSize:         150,
			StabilityTrials:      15,
			DiscriminationTrials: 20,
			Tolerance:            1e-9,
		},
		BootstrapResamples: 100,
		PanelSize:          5,
		PanelSigma:         0.1,
		StabilityTrials:    20,
		Workers:            workers,
	}
}

// renderAll runs every experiment and renders the concatenated text
// output, the same artefact `vdbench all` prints.
func renderAll(t *testing.T, cfg Config) string {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.AllCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, res := range results {
		sb.WriteString(res.String())
	}
	return sb.String()
}

// TestAllIdenticalAcrossWorkers is the end-to-end determinism pin of the
// parallel layer: the full rendered output of every experiment must be
// byte-identical across worker counts, for several seeds. This is the
// acceptance criterion of the parallelisation work — worker count is a
// scheduling knob, never a results knob.
func TestAllIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-worker matrix is slow")
	}
	for _, seed := range []uint64{1, 7, 42} {
		want := renderAll(t, tinyConfig(seed, 1))
		for _, workers := range []int{2, 4, 13} {
			got := renderAll(t, tinyConfig(seed, workers))
			if got != want {
				t.Fatalf("seed %d: output at %d workers differs from serial output", seed, workers)
			}
		}
	}
}

// ownCampaignDrivers are the drivers that build and run a campaign of
// their own, E14's on replays of the Runner's cached one.
func ownCampaignDrivers(r *Runner) map[string]func(context.Context) (Result, error) {
	return map[string]func(context.Context) (Result, error){
		"e13": r.E13MicroMacro,
		"e14": r.E14Combination,
	}
}

// TestOwnCampaignDriversHonourCancel: E13 and E14 run their campaigns
// through harness.RunCtx under the caller's context, so a canceled
// context aborts them with an error wrapping context.Canceled instead of
// computing the campaign anyway.
func TestOwnCampaignDriversHonourCancel(t *testing.T) {
	r, err := NewRunner(tinyConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for id, run := range ownCampaignDrivers(r) {
		if _, err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a canceled context: err = %v, want context.Canceled", id, err)
		}
	}
}

// TestOwnCampaignDriversReportProgress: a harness.WithProgress listener
// on the context sees every cell of the E13 and E14 campaigns. The shared
// campaign is memoised first, so the listener sees only the drivers' own
// campaigns; TestE14ColdRunnerReportsBothCampaigns covers a cold runner.
func TestOwnCampaignDriversReportProgress(t *testing.T) {
	r, err := NewRunner(tinyConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CampaignCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for id, run := range ownCampaignDrivers(r) {
		var mu sync.Mutex
		var events, total int
		tools := map[string]bool{}
		ctx := harness.WithProgress(context.Background(), func(ev harness.ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			events++
			total = ev.Total
			tools[ev.Tool] = true
		})
		res, err := run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rows := res.Tables[0].NumRows()
		if events == 0 || events != total || total != rows*tinyConfig(1, 2).Services || len(tools) != rows {
			t.Errorf("%s: saw %d events of total %d over %d tools, want %d tools × %d cases",
				id, events, total, len(tools), rows, tinyConfig(1, 2).Services)
		}
	}
}

// TestE14ColdRunnerReportsBothCampaigns: on a cold runner E14 first runs
// the 9-tool shared campaign under the caller's context, so the listener
// sees that run's 9N cells and then E14's own 6N, each run complete under
// its own ID.
func TestE14ColdRunnerReportsBothCampaigns(t *testing.T) {
	cfg := tinyConfig(1, 2)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	events := map[uint64]int{}
	totals := map[uint64]int{}
	ctx := harness.WithProgress(context.Background(), func(ev harness.ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		events[ev.Run]++
		totals[ev.Run] = ev.Total
	})
	if _, err := r.E14Combination(ctx); err != nil {
		t.Fatal(err)
	}
	base, err := r.CampaignCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Services
	var sum int
	for run, k := range events {
		if k != totals[run] {
			t.Errorf("run %d: %d events of total %d", run, k, totals[run])
		}
		sum += k
	}
	if len(events) != 2 || sum != len(base.Results)*n+6*n {
		t.Fatalf("saw %d events over %d runs, want %d×%d + 6×%d over 2", sum, len(events), len(base.Results), n, n)
	}
}

// TestAllCtxCanceledReportsFirstDriver pins AllCtx's error contract: on
// a canceled context every driver fails, and the run must report the
// failure serial execution hits first — e1's — at every worker count.
func TestAllCtxCanceledReportsFirstDriver(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 4} {
		r, err := NewRunner(tinyConfig(1, workers))
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 50; rep++ {
			_, err = r.AllCtx(ctx)
			if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "e1: ") {
				t.Fatalf("workers=%d: err = %v, want e1's error wrapping context.Canceled", workers, err)
			}
		}
	}
}
