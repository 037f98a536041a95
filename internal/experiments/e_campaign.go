package experiments

import (
	"context"

	"fmt"

	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/ranking"
	"github.com/dsn2015/vdbench/internal/report"
	"github.com/dsn2015/vdbench/internal/stats"
)

// E3Campaign renders the raw campaign results: per-tool confusion
// matrices, plus the per-kind sink population of the corpus.
func (r *Runner) E3Campaign(ctx context.Context) (Result, error) {
	camp, err := r.CampaignCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	title := fmt.Sprintf(
		"E3: campaign raw results (%d services, %d sinks, %d vulnerable, realised prevalence %s, seed %d)",
		len(camp.Corpus.Cases), camp.Corpus.TotalSinks(), camp.Corpus.VulnerableSinks(),
		report.FormatFloat(camp.Corpus.Prevalence()), r.cfg.Seed,
	)
	tools := report.NewTable(title, "tool", "class", "TP", "FP", "FN", "TN")
	for _, res := range camp.Results {
		tools.AddRowValues(res.Tool, res.Class.String(), res.Overall.TP, res.Overall.FP, res.Overall.FN, res.Overall.TN)
	}

	kindCounts := map[string]int{}
	for kind, n := range camp.Corpus.ByKind() {
		kindCounts[kind.String()] = n
	}
	kinds := report.NewTable("E3b: corpus sink population by vulnerability class", "class", "sinks")
	for _, name := range sortedKindNames(kindCounts) {
		kinds.AddRowValues(name, kindCounts[name])
	}

	return Result{
		ID:     "e3",
		Title:  "Campaign raw results (confusion matrices)",
		Tables: []*report.Table{tools, kinds},
	}, nil
}

// E4MetricValues renders every campaign metric for every tool — the table
// the rest of the metric study reads tool quality from.
func (r *Runner) E4MetricValues(ctx context.Context) (Result, error) {
	camp, err := r.CampaignCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	headers := append([]string{"tool"}, campaignMetricIDs()...)
	tbl := report.NewTable("E4: metric values per tool (campaign of E3)", headers...)
	for _, res := range camp.Results {
		row := []string{res.Tool}
		for _, id := range campaignMetricIDs() {
			m := metrics.MustByID(id)
			v, err := m.Value(res.Overall)
			if err != nil {
				if metrics.IsUndefined(err) {
					row = append(row, "undef")
					continue
				}
				return Result{}, err
			}
			row = append(row, report.FormatFloat(v))
		}
		tbl.AddRow(row...)
	}
	// Companion table: Wilson 95% intervals for the two headline rate
	// metrics. Rates are binomial proportions (recall = TP successes out
	// of P trials; precision = TP out of reported), so the intervals are
	// exact-model error bars, not resampling artefacts.
	ci := report.NewTable("E4b: 95% Wilson intervals for recall and precision",
		"tool", "recall", "recall 95% CI", "precision", "precision 95% CI")
	for _, res := range camp.Results {
		c := res.Overall
		recIv, err := stats.Wilson(c.TP, c.Positives(), 0.95)
		if err != nil {
			return Result{}, err
		}
		row := []string{res.Tool, report.FormatFloat(recIv.Point),
			fmt.Sprintf("[%s, %s]", report.FormatFloat(recIv.Lo), report.FormatFloat(recIv.Hi))}
		if c.PredictedPositives() > 0 {
			precIv, err := stats.Wilson(c.TP, c.PredictedPositives(), 0.95)
			if err != nil {
				return Result{}, err
			}
			row = append(row, report.FormatFloat(precIv.Point),
				fmt.Sprintf("[%s, %s]", report.FormatFloat(precIv.Lo), report.FormatFloat(precIv.Hi)))
		} else {
			row = append(row, "undef", "n/a")
		}
		ci.AddRow(row...)
	}
	// Second companion: percentile-bootstrap intervals for the two
	// composite headline metrics. F1 and MCC are not binomial proportions,
	// so Wilson does not apply; resampling the sink outcomes is the
	// appropriate error bar.
	boot := report.NewTable(
		fmt.Sprintf("E4c: %d-resample percentile bootstrap 95%% CIs (F1, MCC)", r.cfg.BootstrapResamples),
		"tool", "f1", "f1 95% CI", "mcc", "mcc 95% CI")
	ivs, err := r.e4Intervals(camp)
	if err != nil {
		return Result{}, err
	}
	for i := range camp.Results {
		res := &camp.Results[i]
		row := []string{res.Tool}
		for j, id := range e4BootstrapMetricIDs {
			m := metrics.MustByID(id)
			point, err := m.ValueOr(res.Overall, worstFallback(m))
			if err != nil {
				return Result{}, err
			}
			row = append(row, report.FormatFloat(point),
				fmt.Sprintf("[%s, %s]", report.FormatFloat(ivs[i][j].Lo), report.FormatFloat(ivs[i][j].Hi)))
		}
		boot.AddRow(row...)
	}
	return Result{
		ID:     "e4",
		Title:  "Metric values per tool",
		Tables: []*report.Table{tbl, ci, boot},
	}, nil
}

// e4BootstrapMetricIDs are the metrics of E4's bootstrap table, in
// column order.
var e4BootstrapMetricIDs = []string{metrics.IDF1, metrics.IDMCC}

// e4Intervals returns the percentile-bootstrap intervals of E4c,
// ivs[tool][j] for metric e4BootstrapMetricIDs[j]. Each tool draws one
// resample stream, split off in result order, and its metrics are scored
// on the same resamples (common random numbers).
func (r *Runner) e4Intervals(camp *harness.Campaign) ([][]stats.Interval, error) {
	cfg := stats.BootstrapConfig{Resamples: r.cfg.BootstrapResamples, Confidence: 0.95}
	rng := stats.NewRNG(r.cfg.Seed + 4)
	ivs := make([][]stats.Interval, len(camp.Results))
	for i := range camp.Results {
		codes := camp.Results[i].Codes()
		fns := make([]func(*[16]int) float64, len(e4BootstrapMetricIDs))
		for j, id := range e4BootstrapMetricIDs {
			fns[j] = e4Stat(codes, metrics.MustByID(id))
		}
		var err error
		if ivs[i], err = stats.BootstrapCodes(rng.Split(), codes, cfg, fns...); err != nil {
			return nil, err
		}
	}
	return ivs, nil
}

// e4Stat is E4c's resampled statistic: metric m over a resample of one
// tool's code table with per-code counts cnt, with an undefined value or
// an error replaced by the metric's worst value.
func e4Stat(codes harness.OutcomeCodes, m metrics.Metric) func(cnt *[16]int) float64 {
	return func(cnt *[16]int) float64 {
		v, err := m.ValueOr(codes.Fold(cnt), worstFallback(m))
		if err != nil {
			return worstFallback(m)
		}
		return v
	}
}

// E5Rankings renders the tool ranking induced by each metric and the
// pairwise Kendall tau between metric-induced rankings: the quantitative
// form of "metrics disagree about which tool is best".
func (r *Runner) E5Rankings(ctx context.Context) (Result, error) {
	camp, err := r.CampaignCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	ids := campaignMetricIDs()
	scores := make(map[string][]float64, len(ids))
	for _, id := range ids {
		m := metrics.MustByID(id)
		s, err := camp.MetricScores(m, worstFallback(m))
		if err != nil {
			return Result{}, err
		}
		scores[id] = s
	}

	// Table 1: rank of each tool under each metric (1 = best).
	headers := append([]string{"tool"}, ids...)
	rankTbl := report.NewTable("E5: tool rank under each metric (1 = best)", headers...)
	rankRows := make(map[string][]float64, len(ids))
	for _, id := range ids {
		rankRows[id] = ranking.Ranks(scores[id])
	}
	for t, tool := range camp.ToolNames() {
		row := []string{tool}
		for _, id := range ids {
			row = append(row, report.FormatFloat(rankRows[id][t]))
		}
		rankTbl.AddRow(row...)
	}

	// Table 2: Kendall tau-b between metric-induced rankings.
	tauTbl := report.NewTable("E5b: Kendall tau-b between metric-induced tool rankings", append([]string{"metric"}, ids...)...)
	for _, a := range ids {
		row := []string{a}
		for _, b := range ids {
			tau, err := ranking.KendallTau(scores[a], scores[b])
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, report.FormatFloat(tau))
		}
		tauTbl.AddRow(row...)
	}
	return Result{
		ID:     "e5",
		Title:  "Metric-induced tool rankings and their disagreement",
		Tables: []*report.Table{rankTbl, tauTbl},
	}, nil
}

// worstFallback substitutes the worst defined value when a metric is
// undefined for some tool (e.g. precision for a tool that reports
// nothing), so rankings remain total.
func worstFallback(m metrics.Metric) float64 {
	if !m.Bounded() {
		return 0
	}
	if m.Orientation == metrics.LowerIsBetter {
		return m.Hi
	}
	return m.Lo
}

// pairCountsDelta is E7's resampled statistic: the goodness-oriented
// delta of metric m, tool a minus tool b, over a resample of the pair's
// joint code table with per-code counts cnt, with undefined values
// replaced by the metric's worst value. A metric error counts as a zero
// delta (sign-unstable).
func pairCountsDelta(codes harness.PairCodes, m metrics.Metric, cnt *[16]int) float64 {
	ca, cb := codes.Fold(cnt)
	va, err := m.ValueOr(ca, worstFallback(m))
	if err != nil {
		return 0
	}
	vb, err := m.ValueOr(cb, worstFallback(m))
	if err != nil {
		return 0
	}
	return m.Goodness(va) - m.Goodness(vb)
}

// e7Pairs returns the adjacent pairs of the campaign's F1 ranking:
// order lists result indices best first, and pairs[i] is the joint code
// table of results order[i] and order[i+1].
func e7Pairs(camp *harness.Campaign) (order []int, pairs []harness.PairCodes, err error) {
	f1Scores, err := camp.MetricScores(metrics.MustByID(metrics.IDF1), 0)
	if err != nil {
		return nil, nil, err
	}
	order = ranking.TopK(f1Scores, len(f1Scores))
	pairs = make([]harness.PairCodes, max(len(order)-1, 0))
	for i := range pairs {
		if pairs[i], err = harness.NewPairCodes(&camp.Results[order[i]], &camp.Results[order[i+1]]); err != nil {
			return nil, nil, err
		}
	}
	return order, pairs, nil
}

// e7Fractions returns E7's sign-stability fractions, fracs[pair][j] for
// metric campaignMetricIDs()[j]. Each pair draws one resample stream,
// pre-split in pair order, and every metric is scored on the same
// resamples (common random numbers). The pairs fan out across the
// shared worker budget; each owns its stream, so every fraction is
// byte-identical at any worker count.
func (r *Runner) e7Fractions(pairs []harness.PairCodes) ([][]float64, error) {
	ids := campaignMetricIDs()
	rng := stats.NewRNG(r.cfg.Seed + 7)
	rngs := make([]*stats.RNG, len(pairs))
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	fracs := make([][]float64, len(pairs))
	err := r.budget.ForEach(len(pairs), func(_, pair int) error {
		codes := pairs[pair]
		fns := make([]func(*[16]int) float64, len(ids))
		for j, id := range ids {
			m := metrics.MustByID(id)
			fns[j] = func(cnt *[16]int) float64 { return pairCountsDelta(codes, m, cnt) }
		}
		var err error
		fracs[pair], err = stats.SignStabilityCodes(rngs[pair], codes, r.cfg.BootstrapResamples, fns...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return fracs, nil
}

// E7Discrimination measures, for each metric and each adjacent pair in the
// campaign's F1 ranking, the fraction of workload bootstrap resamples that
// preserve the sign of the metric delta — the discriminative power of the
// metric on real tool pairs.
func (r *Runner) E7Discrimination(ctx context.Context) (Result, error) {
	camp, err := r.CampaignCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	order, pairCodes, err := e7Pairs(camp)
	if err != nil {
		return Result{}, err
	}
	ids := campaignMetricIDs()
	headers := append([]string{"pair (better vs worse by F1)"}, ids...)
	tbl := report.NewTable(
		fmt.Sprintf("E7: sign stability of metric deltas under %d workload resamples", r.cfg.BootstrapResamples),
		headers...,
	)
	fracs, err := r.e7Fractions(pairCodes)
	if err != nil {
		return Result{}, err
	}
	for i, pairFracs := range fracs {
		row := []string{fmt.Sprintf("%s vs %s", camp.Results[order[i]].Tool, camp.Results[order[i+1]].Tool)}
		for _, f := range pairFracs {
			row = append(row, report.FormatFloat(f))
		}
		tbl.AddRow(row...)
	}
	// Companion: McNemar's paired test on classification correctness for
	// the same adjacent pairs. It asks the metric-free question "do these
	// two tools classify this workload differently at all?" — the
	// statistically appropriate test, since both tools share every case.
	mcTbl := report.NewTable("E7b: McNemar paired test per adjacent pair (correct-vs-correct)",
		"pair", "A-only correct", "B-only correct", "chi2", "p-value", "significant at 0.05")
	for i, codes := range pairCodes {
		res, err := codes.McNemar()
		if err != nil {
			return Result{}, err
		}
		mcTbl.AddRowValues(
			fmt.Sprintf("%s vs %s", camp.Results[order[i]].Tool, camp.Results[order[i+1]].Tool),
			res.B, res.C, res.Statistic, res.PValue, yesNo(res.Significant(0.05)),
		)
	}
	return Result{
		ID:     "e7",
		Title:  "Discriminative power under workload resampling",
		Tables: []*report.Table{tbl, mcTbl},
	}, nil
}
