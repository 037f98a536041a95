package experiments

// E18: metric distortion under injected tool failure. The paper's
// "characteristics of a good metric" analysis assumes every tool produced
// a complete result matrix; real campaigns lose cells to crashes, hangs
// and flakes. This experiment injects seeded, deterministic faults into
// the standard suite at growing rates and measures how far every
// catalogue metric drifts from its fault-free value under the two
// degraded-cell scoring policies — plus the byzantine bound, where a tool
// silently reports wrong findings and no ledger can warn the scorer.

import (
	"context"
	"fmt"
	"math"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/report"
	"github.com/dsn2015/vdbench/internal/workload"
)

// e18Rates is the injected failure-rate sweep: 1% of cases lost to 30%.
var e18Rates = []float64{0.01, 0.05, 0.10, 0.20, 0.30}

// e18FigureMetricIDs are the metrics plotted in the distortion figure
// (the headline metrics of the campaign tables).
var e18FigureMetricIDs = []string{
	metrics.IDRecall, metrics.IDPrecision, metrics.IDF1,
	metrics.IDAccuracy, "mcc", "informedness",
}

// E18Degradation measures metric distortion under partial tool failure:
// every tool of the standard suite is wrapped with deterministic fault
// injection (internal/detectors/faulty) and the campaign re-run at each
// failure rate under both degraded-cell policies. Distortion is the mean
// absolute deviation of a metric across tools from its fault-free value.
// A final pair of tables shows the execution ledger at the 10% rate and
// the retry policy recovering transient faults completely.
func (r *Runner) E18Degradation(ctx context.Context) (Result, error) {
	baseline, err := r.CampaignCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	corpus := baseline.Corpus
	catalog := metrics.Catalog()
	// The fault wrappers decorate replays of the baseline, not fresh
	// tools: an unaffected cell would re-run exactly as it did in the
	// baseline, so the 16 campaigns below execute no service.
	tools, err := harness.ReplayTools(baseline)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: replay baseline: %w", err)
	}

	type cell struct {
		mean, max float64
		n         int
	}
	// distortion[policy row][metric][rate]
	skipCells := make(map[string][]cell, len(catalog))
	missCells := make(map[string][]cell, len(catalog))
	byzCells := make(map[string][]cell, len(catalog))

	// Each degraded campaign is folded into its cells as soon as it has
	// run, so at most one is live at a time; only the ledger table's
	// results outlive the sweep.
	score := func(camp *harness.Campaign, cells map[string][]cell) {
		for _, m := range catalog {
			mean, max, n := e18Distortion(baseline, camp, m)
			cells[m.ID] = append(cells[m.ID], cell{mean, max, n})
		}
	}
	var ledgerSkip []harness.ToolResult // panic mode @10%, for the ledger table
	for i, rate := range e18Rates {
		skipCamp, err := r.e18Campaign(ctx, corpus, tools, faulty.ModePanic, rate, harness.DegradedSkip, harness.RetryPolicy{})
		if err != nil {
			return Result{}, err
		}
		score(skipCamp, skipCells)
		if i == 2 { // rate 0.10
			ledgerSkip = skipCamp.Results
		}
		missCamp, err := r.e18Campaign(ctx, corpus, tools, faulty.ModePanic, rate, harness.DegradedCountMiss, harness.RetryPolicy{})
		if err != nil {
			return Result{}, err
		}
		score(missCamp, missCells)
		byzCamp, err := r.e18Campaign(ctx, corpus, tools, faulty.ModeByzantine, rate, harness.DegradedSkip, harness.RetryPolicy{})
		if err != nil {
			return Result{}, err
		}
		score(byzCamp, byzCells)
	}

	rateHeader := func() []string {
		out := []string{"metric"}
		for _, rate := range e18Rates {
			out = append(out, fmt.Sprintf("%.0f%%", rate*100))
		}
		return out
	}
	distortionTable := func(title string, cells map[string][]cell) *report.Table {
		tbl := report.NewTable(title, rateHeader()...)
		for _, m := range catalog {
			row := []string{m.ID}
			for _, c := range cells[m.ID] {
				if c.n == 0 {
					row = append(row, "undef")
				} else {
					row = append(row, fmt.Sprintf("%.4f", c.mean))
				}
			}
			tbl.AddRow(row...)
		}
		return tbl
	}

	t1 := distortionTable(
		"E18a: mean absolute metric distortion vs failure rate, panic faults, skip policy (cases dropped from the matrix)", skipCells)
	t2 := distortionTable(
		"E18b: mean absolute metric distortion vs failure rate, panic faults, count-as-miss policy (failed cases scored unflagged)", missCells)
	t3 := distortionTable(
		"E18c: mean absolute metric distortion vs silent byzantine misreporting rate (no ledger entry; the unmeasurable bound)", byzCells)

	// Ledger table: the panic campaign at 10% with the skip policy. Every
	// failed cell is visible — degraded results are only trustworthy
	// because this accounting exists.
	t4 := report.NewTable(
		"E18d: execution ledger, panic faults at 10% (skip policy)",
		"tool", "cases", "succeeded", "failed", "panics", "timeouts", "errors", "attempts", "retries")
	for _, res := range ledgerSkip {
		l := res.Exec
		t4.AddRowValues(res.Tool, l.Cases, l.Succeeded, l.Failed, l.RecoveredPanics, l.Timeouts, l.Errors, l.Attempts, l.Retries)
	}

	// Retry table: transient faults at 10% with one failure before
	// success and a single-retry budget recover every cell; the metric
	// distortion is exactly zero and the ledger shows the retries that
	// bought it.
	transient, err := r.e18Campaign(ctx, corpus, tools, faulty.ModeTransient, 0.10, harness.DegradedSkip, harness.RetryPolicy{MaxRetries: 1})
	if err != nil {
		return Result{}, err
	}
	t5 := report.NewTable(
		"E18e: retry recovery, transient faults at 10% with retry budget 1",
		"tool", "cases", "succeeded", "failed", "retries", "|f1 drift| vs fault-free")
	f1 := metrics.MustByID(metrics.IDF1)
	for i, res := range transient.Results {
		drift := "undef"
		if vb, err := f1.Value(baseline.Results[i].Overall); err == nil {
			if vd, err := f1.Value(res.Overall); err == nil {
				drift = fmt.Sprintf("%.6f", math.Abs(vd-vb))
			}
		}
		l := res.Exec
		t5.AddRowValues(res.Tool, l.Cases, l.Succeeded, l.Failed, l.Retries, drift)
	}

	fig := &report.Figure{
		Title:  "E18: metric distortion vs injected failure rate (count-as-miss policy)",
		XLabel: "failure rate",
		YLabel: "mean |metric - fault-free value| across tools",
	}
	for _, id := range e18FigureMetricIDs {
		ys := make([]float64, len(e18Rates))
		for i, c := range missCells[id] {
			if c.n == 0 {
				ys[i] = math.NaN()
			} else {
				ys[i] = c.mean
			}
		}
		if err := fig.AddSeries(id, append([]float64(nil), e18Rates...), ys); err != nil {
			return Result{}, err
		}
	}

	return Result{
		ID:      "e18",
		Title:   "Metric distortion under injected tool failure (extension)",
		Tables:  []*report.Table{t1, t2, t3, t4, t5},
		Figures: []*report.Figure{fig},
	}, nil
}

// e18Campaign runs tools wrapped with fault injection at the given rate.
// The harness seed matches the baseline campaign, so every unaffected
// (tool, case) cell answers as it did in the baseline — identically for
// the standard suite and for its replay — and the measured drift comes
// from the faults alone. Fault placement is keyed on the experiment seed
// and is rate-nested: the cases lost at 1% are a subset of those lost at
// 5%, and so on up the sweep.
func (r *Runner) e18Campaign(ctx context.Context, corpus *workload.Corpus, tools []detectors.Tool, mode faulty.Mode, rate float64, policy harness.DegradedPolicy, retry harness.RetryPolicy) (*harness.Campaign, error) {
	wrapped := make([]detectors.Tool, len(tools))
	for i, tool := range tools {
		var err error
		wrapped[i], err = faulty.Wrap(tool, faulty.Config{Mode: mode, Rate: rate, Seed: r.cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: wrap %s: %w", tool.Name(), err)
		}
	}
	camp, err := harness.RunCtx(ctx, corpus, wrapped, harness.Options{
		Seed:     r.cfg.Seed,
		Workers:  r.cfg.Workers,
		Retry:    retry,
		Degraded: policy,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: degraded campaign (mode %s, rate %g): %w", mode, rate, err)
	}
	return camp, nil
}

// e18Distortion compares one metric across the two campaigns tool by
// tool: the mean and max absolute deviation over the tools on which the
// metric is defined in both, and how many tools that was.
func e18Distortion(baseline, degraded *harness.Campaign, m metrics.Metric) (mean, max float64, n int) {
	var sum float64
	for i := range baseline.Results {
		vb, err := m.Value(baseline.Results[i].Overall)
		if err != nil {
			continue
		}
		vd, err := m.Value(degraded.Results[i].Overall)
		if err != nil {
			continue
		}
		d := math.Abs(vd - vb)
		sum += d
		if d > max {
			max = d
		}
		n++
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return mean, max, n
}
