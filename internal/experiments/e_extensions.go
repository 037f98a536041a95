package experiments

// Extension experiments beyond the paper's core pipeline (marked as such
// in DESIGN.md): method-independence of the MCDA validation (E11),
// threshold-free metrics over tool confidence scores (E12), and the
// micro- vs macro-averaging gap across vulnerability classes (E13).

import (
	"context"

	"fmt"
	"slices"
	"strings"

	"github.com/dsn2015/vdbench/internal/core"
	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/mcda"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/ranking"
	"github.com/dsn2015/vdbench/internal/report"
	"github.com/dsn2015/vdbench/internal/scenario"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// E11MethodAgreement checks that the per-scenario metric selection does
// not depend on the MCDA method: weighted sum (the analytical selection),
// AHP (eigenvector weights) and TOPSIS must produce concordant rankings.
func (r *Runner) E11MethodAgreement(ctx context.Context) (Result, error) {
	profiles, err := r.Profiles()
	if err != nil {
		return Result{}, err
	}
	problem, err := core.BuildProblem(profiles)
	if err != nil {
		return Result{}, err
	}
	tbl := report.NewTable("E11: MCDA method agreement per scenario",
		"scenario", "WSM best", "AHP best", "TOPSIS best", "WPM best",
		"tau WSM-AHP", "tau WSM-TOPSIS", "tau WSM-WPM")
	for _, s := range scenario.Scenarios() {
		weights, err := s.WeightVector()
		if err != nil {
			return Result{}, err
		}
		wsm, err := mcda.WeightedSum(problem, weights)
		if err != nil {
			return Result{}, err
		}
		judgments, err := mcda.FromWeights(weights)
		if err != nil {
			return Result{}, err
		}
		ahpRes, err := mcda.AHP(judgments, problem)
		if err != nil {
			return Result{}, err
		}
		topsis, err := mcda.TOPSIS(problem, weights)
		if err != nil {
			return Result{}, err
		}
		tau1, err := ranking.KendallTau(wsm, ahpRes.Scores)
		if err != nil {
			return Result{}, err
		}
		tau2, err := ranking.KendallTau(wsm, topsis)
		if err != nil {
			return Result{}, err
		}
		wpm, err := mcda.WeightedProduct(problem, weights)
		if err != nil {
			return Result{}, err
		}
		tau3, err := ranking.KendallTau(wsm, wpm)
		if err != nil {
			return Result{}, err
		}
		tbl.AddRowValues(s.ID,
			problem.Alternatives[ranking.TopK(wsm, 1)[0]],
			problem.Alternatives[ranking.TopK(ahpRes.Scores, 1)[0]],
			problem.Alternatives[ranking.TopK(topsis, 1)[0]],
			problem.Alternatives[ranking.TopK(wpm, 1)[0]],
			tau1, tau2, tau3)
	}
	return Result{
		ID:     "e11",
		Title:  "MCDA method agreement (extension)",
		Tables: []*report.Table{tbl},
	}, nil
}

// E12ThresholdFree evaluates the tools with threshold-free metrics over
// their confidence scores: ROC AUC and average precision. These metrics
// sidestep the operating-point question entirely — another family of
// "seldom used" benchmark metrics.
func (r *Runner) E12ThresholdFree(ctx context.Context) (Result, error) {
	camp, err := r.CampaignCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	tbl := report.NewTable("E12: threshold-free tool quality over confidence scores",
		"tool", "class", "ROC AUC", "avg precision")
	for i := range camp.Results {
		res := &camp.Results[i]
		scored := res.ScoredInstances()
		auc, err := metrics.AUC(scored)
		if err != nil {
			return Result{}, fmt.Errorf("AUC for %s: %w", res.Tool, err)
		}
		ap, err := metrics.AveragePrecision(scored)
		if err != nil {
			return Result{}, fmt.Errorf("AP for %s: %w", res.Tool, err)
		}
		tbl.AddRowValues(res.Tool, res.Class.String(), auc, ap)
	}
	return Result{
		ID:     "e12",
		Title:  "Threshold-free metrics (extension)",
		Tables: []*report.Table{tbl},
	}, nil
}

// E13MicroMacro contrasts micro-averaged (instance-weighted) and
// macro-averaged (class-weighted) F1 and recall across vulnerability
// classes. The corpus is deliberately skewed (SQL dominates 8:1 over
// command injection): tools that are weak on the rare class look better
// under micro than macro averaging, so the averaging mode is itself a
// benchmark design decision. The main campaign's balanced corpus would
// hide this, hence the dedicated skewed corpus.
func (r *Runner) E13MicroMacro(ctx context.Context) (Result, error) {
	skewed := make([]svclang.SinkKind, 0, 9)
	for i := 0; i < 8; i++ {
		skewed = append(skewed, svclang.SinkSQL)
	}
	skewed = append(skewed, svclang.SinkCmd)
	corpus, err := workload.Generate(workload.Config{
		Services:         r.cfg.Services,
		TargetPrevalence: r.cfg.Prevalence,
		Kinds:            skewed,
		Seed:             r.cfg.Seed + 13,
	})
	if err != nil {
		return Result{}, err
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		return Result{}, err
	}
	opts := r.cfg.execOptions()
	opts.Seed = r.cfg.Seed + 13
	camp, err := r.runOwnCampaign(ctx, corpus, tools, opts)
	if err != nil {
		return Result{}, err
	}
	f1 := metrics.MustByID(metrics.IDF1)
	rec := metrics.MustByID(metrics.IDRecall)
	tbl := report.NewTable(
		fmt.Sprintf("E13: micro vs macro averaging on a skewed corpus (sql:cmd = 8:1, %d services)", r.cfg.Services),
		"tool", "micro-F1", "macro-F1", "F1 gap", "micro-recall", "macro-recall", "recall gap")
	for i := range camp.Results {
		res := &camp.Results[i]
		perClass := make([]metrics.Confusion, 0, len(res.ByKind))
		for _, kind := range svclang.AllSinkKinds() {
			if c, ok := res.ByKind[kind]; ok {
				perClass = append(perClass, c)
			}
		}
		microF1, err := f1.ValueOr(res.Overall, 0)
		if err != nil {
			return Result{}, err
		}
		macroF1, err := metrics.MacroAverage(f1, perClass)
		if err != nil {
			return Result{}, err
		}
		microRec, err := rec.ValueOr(res.Overall, 0)
		if err != nil {
			return Result{}, err
		}
		macroRec, err := metrics.MacroAverage(rec, perClass)
		if err != nil {
			return Result{}, err
		}
		tbl.AddRowValues(res.Tool,
			microF1, macroF1.Value, microF1-macroF1.Value,
			microRec, macroRec.Value, microRec-macroRec.Value)
	}
	return Result{
		ID:     "e13",
		Title:  "Micro vs macro averaging (extension)",
		Tables: []*report.Table{tbl},
	}, nil
}

// E14Combination quantifies tool combination, the common industrial
// practice of running SAST and DAST together: union inherits every
// member's detections (recall >= each member) and false alarms
// (precision <= each member); intersection keeps only common findings
// (the reverse); majority voting sits between.
func (r *Runner) E14Combination(ctx context.Context) (Result, error) {
	base, err := r.CampaignCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	// The members replay the shared campaign, which has already run them
	// on this corpus: they ignore their RNG, so a replayed case reports
	// exactly what re-running the member would.
	members, err := replayMembers(base, e14Members...)
	if err != nil {
		return Result{}, err
	}
	camp, err := r.e14Campaign(ctx, base.Corpus, members)
	if err != nil {
		return Result{}, err
	}
	rec := metrics.MustByID(metrics.IDRecall)
	prec := metrics.MustByID(metrics.IDPrecision)
	f1 := metrics.MustByID(metrics.IDF1)
	mcc := metrics.MustByID(metrics.IDMCC)
	tbl := report.NewTable("E14: tool combination (members first, then combinations)",
		"tool", "TP", "FP", "FN", "TN", "recall", "precision", "f1", "mcc")
	for i := range camp.Results {
		res := &camp.Results[i]
		row := []any{res.Tool, res.Overall.TP, res.Overall.FP, res.Overall.FN, res.Overall.TN}
		for _, m := range []metrics.Metric{rec, prec, f1, mcc} {
			v, err := m.ValueOr(res.Overall, 0)
			if err != nil {
				return Result{}, err
			}
			row = append(row, v)
		}
		tbl.AddRowValues(row...)
	}
	return Result{
		ID:     "e14",
		Title:  "Tool combination (extension)",
		Tables: []*report.Table{tbl},
	}, nil
}

// e14Members are the standard-suite tools E14 combines. ts-lite and
// pt-deep have complementary blind spots: the lightweight SAST misses
// wrong-sanitizer and loop-carried flows, the pentester misses silent and
// guarded sinks. Their combination is therefore the interesting one.
var e14Members = []string{"ts-lite", "pt-deep", "grep-sast"}

// e14Campaign runs the members (sast, dast, grep, in e14Members order)
// and their three combinations over corpus.
func (r *Runner) e14Campaign(ctx context.Context, corpus *workload.Corpus, members []detectors.Tool) (*harness.Campaign, error) {
	sast, dast, grep := members[0], members[1], members[2]
	union, err := detectors.NewCombined("sast∪dast", detectors.Union, []detectors.Tool{sast, dast})
	if err != nil {
		return nil, err
	}
	inter, err := detectors.NewCombined("sast∩dast", detectors.Intersection, []detectors.Tool{sast, dast})
	if err != nil {
		return nil, err
	}
	maj, err := detectors.NewCombined("majority-2of3", detectors.Majority, []detectors.Tool{sast, dast, grep})
	if err != nil {
		return nil, err
	}
	return r.runOwnCampaign(ctx, corpus, []detectors.Tool{sast, dast, grep, union, inter, maj}, r.cfg.execOptions())
}

// replayMembers returns replay tools of the named results of camp, in the
// order given.
func replayMembers(camp *harness.Campaign, names ...string) ([]detectors.Tool, error) {
	sub := harness.Campaign{Corpus: camp.Corpus, Results: make([]harness.ToolResult, len(names))}
	for i, name := range names {
		idx := slices.IndexFunc(camp.Results, func(res harness.ToolResult) bool { return res.Tool == name })
		if idx < 0 {
			return nil, fmt.Errorf("experiments: campaign has no tool %q", name)
		}
		sub.Results[i] = camp.Results[idx]
	}
	tools, err := harness.ReplayTools(&sub)
	if err != nil {
		return nil, fmt.Errorf("experiments: replay campaign: %w", err)
	}
	return tools, nil
}

// E15DecisionImpact closes the loop: for each scenario, rank the campaign
// tools (a) by the metric the methodology selects for that scenario and
// (b) by accuracy, the naive default. When the two rankings crown
// different tools, metric selection is not an academic nicety — it changes
// which tool gets bought, deployed or certified.
func (r *Runner) E15DecisionImpact(ctx context.Context) (Result, error) {
	profiles, err := r.Profiles()
	if err != nil {
		return Result{}, err
	}
	camp, err := r.CampaignCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	acc := metrics.MustByID(metrics.IDAccuracy)
	accScores, err := camp.MetricScores(acc, 0)
	if err != nil {
		return Result{}, err
	}
	accBest := camp.ToolNames()[ranking.TopK(accScores, 1)[0]]
	tbl := report.NewTable("E15: does metric selection change the decision? (campaign of E3)",
		"scenario", "selected metric", "winner under selected", "winner under accuracy",
		"decision changed", "tau selected-vs-accuracy")
	for _, s := range scenario.Scenarios() {
		sel, err := core.Select(s, profiles)
		if err != nil {
			return Result{}, err
		}
		m := metrics.MustByID(sel.Best())
		scores, err := camp.MetricScores(m, -1)
		if err != nil {
			return Result{}, err
		}
		winner := camp.ToolNames()[ranking.TopK(scores, 1)[0]]
		tau, err := ranking.KendallTau(scores, accScores)
		if err != nil {
			return Result{}, err
		}
		changed := "no"
		if winner != accBest {
			changed = "yes"
		}
		tbl.AddRowValues(s.ID, sel.Best(), winner, accBest, changed, tau)
	}
	return Result{
		ID:     "e15",
		Title:  "Decision impact of metric selection (extension)",
		Tables: []*report.Table{tbl},
	}, nil
}

// E16FailureMap renders the failure-mechanism map: the fraction of sinks
// each tool classifies correctly, per workload template. Each template
// embodies one cause of wrong results (wrong sanitizer, dead code, silent
// sink, ...), so the map shows *why* each tool scores the way it does —
// the mechanism-level account behind the aggregate numbers of E3/E4.
func (r *Runner) E16FailureMap(ctx context.Context) (Result, error) {
	camp, err := r.CampaignCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	// Stable template row order from the template library, restricted to
	// templates present in the corpus.
	present := map[string]bool{}
	for _, cs := range camp.Corpus.Cases {
		present[cs.Template] = true
	}
	var rows []string
	for _, tpl := range workload.Templates() {
		if present[tpl.Name] {
			rows = append(rows, tpl.Name)
		}
	}
	headers := append([]string{"template", "sinks"}, camp.ToolNames()...)
	tbl := report.NewTable("E16: fraction of sinks classified correctly, per workload template", headers...)
	for _, name := range rows {
		var sinks int
		row := []string{name}
		for i := range camp.Results {
			c := camp.Results[i].ByTemplate[name]
			if i == 0 {
				sinks = c.Total()
				row = append(row, fmt.Sprint(sinks))
			}
			correct := float64(c.TP+c.TN) / float64(c.Total())
			row = append(row, report.FormatFloat(correct))
		}
		tbl.AddRow(row...)
	}
	return Result{
		ID:     "e16",
		Title:  "Failure-mechanism map (extension)",
		Tables: []*report.Table{tbl},
	}, nil
}

// E17Redundancy detects redundant metrics: pairs whose rankings of a large
// random tool population are (near-)identical measure the same thing under
// a different name, so a benchmark need not report both. Clusters at
// |Spearman rho| >= 0.999 are monotone equivalents (recall vs FNR,
// accuracy vs error rate, informedness vs balanced accuracy); the looser
// 0.95 threshold exposes the near-duplicates.
func (r *Runner) E17Redundancy(ctx context.Context) (Result, error) {
	const population = 400
	const prevalence = 0.35
	const size = 20000
	rng := stats.NewRNG(r.cfg.Seed + 17)
	cat := metrics.Catalog()
	// Random tool population at fixed prevalence.
	goodness := make([][]float64, len(cat))
	for i := range goodness {
		goodness[i] = make([]float64, population)
	}
	for p := 0; p < population; p++ {
		tpr := 0.05 + 0.9*rng.Float64()
		fpr := 0.9 * rng.Float64()
		c := expectedConfusion(e6Quality{tpr: tpr, fpr: fpr}, size, prevalence)
		for i, m := range cat {
			v, err := m.ValueOr(c, worstFallback(m))
			if err != nil {
				return Result{}, err
			}
			goodness[i][p] = m.Goodness(v)
		}
	}
	// Spearman's rho over ranks computed once per metric, not per pair.
	ranks := make([][]float64, len(cat))
	for i := range goodness {
		ranks[i] = ranking.Ranks(goodness[i])
	}
	rho := func(a, b int) float64 {
		v, err := stats.Pearson(ranks[a], ranks[b])
		if err != nil {
			return 0
		}
		if v < 0 {
			return -v
		}
		return v
	}
	cluster := func(threshold float64) [][]string {
		assigned := make([]int, len(cat))
		for i := range assigned {
			assigned[i] = -1
		}
		var clusters [][]int
		for i := range cat {
			placed := false
			for ci, members := range clusters {
				if rho(members[0], i) >= threshold {
					clusters[ci] = append(clusters[ci], i)
					placed = true
					break
				}
			}
			if !placed {
				clusters = append(clusters, []int{i})
			}
		}
		var out [][]string
		for _, members := range clusters {
			if len(members) < 2 {
				continue
			}
			names := make([]string, len(members))
			for j, m := range members {
				names[j] = cat[m].ID
			}
			out = append(out, names)
		}
		return out
	}
	tbl := report.NewTable(
		fmt.Sprintf("E17: redundant metric clusters over %d random tools (prevalence %s)",
			population, report.FormatFloat(prevalence)),
		"threshold", "cluster")
	for _, th := range []float64{0.999, 0.95} {
		for _, names := range cluster(th) {
			tbl.AddRowValues(th, strings.Join(names, ", "))
		}
	}
	return Result{
		ID:     "e17",
		Title:  "Metric redundancy clusters (extension)",
		Tables: []*report.Table{tbl},
	}, nil
}
