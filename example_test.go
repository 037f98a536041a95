package vdbench_test

import (
	"context"
	"fmt"
	"log"

	"github.com/dsn2015/vdbench"
)

// Example_campaign generates a small labelled workload, runs the standard
// tool suite, and prints each tool's recall — the minimal end-to-end use
// of the framework.
func Example_campaign() {
	corpus, err := vdbench.GenerateWorkload(vdbench.WorkloadConfig{
		Services:         50,
		TargetPrevalence: 0.35,
		Seed:             1,
	})
	if err != nil {
		log.Fatal(err)
	}
	tools, err := vdbench.StandardTools()
	if err != nil {
		log.Fatal(err)
	}
	campaign, err := vdbench.RunCampaignCtx(context.Background(), corpus, tools, vdbench.CampaignOptions{Seed: 1, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	recall := vdbench.MustMetric("recall")
	best := ""
	bestV := -1.0
	for _, res := range campaign.Results {
		v, err := res.MetricValue(recall)
		if err != nil {
			log.Fatal(err)
		}
		if v > bestV {
			best, bestV = res.Tool, v
		}
	}
	fmt.Printf("highest recall: %s\n", best)
	// Output:
	// highest recall: ts-precise
}

// Example_metricValues computes several metrics on one confusion matrix,
// including a degenerate case where precision is undefined.
func Example_metricValues() {
	c := vdbench.Confusion{TP: 40, FP: 10, FN: 20, TN: 130}
	for _, id := range []string{"recall", "precision", "mcc"} {
		m := vdbench.MustMetric(id)
		v, err := m.Value(c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s = %.3f\n", id, v)
	}
	// Precision is undefined when the tool reports nothing; ValueOr
	// substitutes a fallback.
	silent := vdbench.Confusion{FN: 5, TN: 95}
	v, err := vdbench.MustMetric("precision").ValueOr(silent, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("precision (nothing reported, fallback) = %.1f\n", v)
	// Output:
	// recall = 0.667
	// precision = 0.800
	// mcc = 0.630
	// precision (nothing reported, fallback) = 0.0
}

// Example_scenarioSelection runs the paper's methodology: profile the
// metric catalogue, then select the right metric for a usage scenario.
func Example_scenarioSelection() {
	cfg := vdbench.PropConfig{
		MonotonicitySamples:  500,
		WorkloadSize:         2000,
		StabilityTrials:      120,
		DiscriminationTrials: 200,
		Tolerance:            1e-9,
	}
	profiles, err := vdbench.AnalyzeMetrics(cfg, 2015)
	if err != nil {
		log.Fatal(err)
	}
	s, _ := vdbench.ScenarioByID("security-audit")
	sel, err := vdbench.SelectMetric(s, profiles)
	if err != nil {
		log.Fatal(err)
	}
	// Informedness and balanced accuracy are affine equivalents; which of
	// the two lands on top varies with the analysis seed, so check the
	// family rather than one member.
	inTop := false
	for _, id := range sel.Top(2) {
		if id == "informedness" || id == "balanced-accuracy" {
			inTop = true
		}
	}
	fmt.Printf("informedness family tops %s: %t\n", s.ID, inTop)
	// Output:
	// informedness family tops security-audit: true
}

// Example_externalWorkload labels a hand-written service with the
// exhaustive oracle.
func Example_externalWorkload() {
	corpus, err := vdbench.LoadWorkload(`
service Lookup
  param user
  sink sql concat("SELECT * FROM t WHERE u='", user, "'")
end
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vulnerable sinks: %d of %d\n", corpus.VulnerableSinks(), corpus.TotalSinks())
	// Output:
	// vulnerable sinks: 1 of 1
}
