// Tool selection: end-to-end use of the paper's methodology. Given a
// usage scenario, first select the right *metric* for that scenario (the
// paper's contribution), then rank the candidate tools under the selected
// metric.
//
// Run with:
//
//	go run ./examples/toolselection [scenario-id]
//
// Scenario IDs: dev-triage, security-audit, auto-gating, procurement.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/dsn2015/vdbench"
)

func main() {
	scenarioID := "security-audit"
	if len(os.Args) > 1 {
		scenarioID = os.Args[1]
	}
	if err := run(scenarioID); err != nil {
		log.Fatal(err)
	}
}

func run(scenarioID string) error {
	s, ok := vdbench.ScenarioByID(scenarioID)
	if !ok {
		return fmt.Errorf("unknown scenario %q", scenarioID)
	}
	fmt.Printf("scenario: %s — %s\n%s\n\n", s.ID, s.Name, s.Description)

	// Step 1: profile every candidate metric (computed properties:
	// prevalence robustness, chance correction, stability, ...).
	fmt.Println("profiling the metric catalogue...")
	profiles, err := vdbench.AnalyzeMetrics(vdbench.DefaultPropConfig(), 2015)
	if err != nil {
		return fmt.Errorf("profile metrics: %w", err)
	}

	// Step 2: select the metric this scenario should use, and validate
	// the choice with AHP over an encoded expert panel.
	selection, err := vdbench.SelectMetric(s, profiles)
	if err != nil {
		return fmt.Errorf("select metric: %w", err)
	}
	validation, err := vdbench.ValidateSelection(s, profiles, 5, 0.1, 2015)
	if err != nil {
		return fmt.Errorf("validate selection: %w", err)
	}
	fmt.Printf("selected metric: %s (top 3: %v)\n", selection.Best(), selection.Top(3))
	fmt.Printf("AHP validation: winner %s, CR=%.3f, tau vs analytical=%.2f\n\n",
		validation.Selection.Best(), validation.AHP.Consistency.CR, validation.AgreementTau)

	// Step 3: benchmark the tools and rank them under the selected metric.
	corpus, err := vdbench.GenerateWorkload(vdbench.WorkloadConfig{
		Services:         200,
		TargetPrevalence: 0.35,
		Seed:             7,
	})
	if err != nil {
		return fmt.Errorf("generate workload: %w", err)
	}
	tools, err := vdbench.StandardTools()
	if err != nil {
		return err
	}
	campaign, err := vdbench.RunCampaignCtx(context.Background(), corpus, tools, vdbench.CampaignOptions{Seed: 7, Workers: 1})
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	metric := vdbench.MustMetric(selection.Best())
	fmt.Printf("tool ranking under %s:\n", metric.ID)
	type entry struct {
		tool  string
		value float64
	}
	var entries []entry
	for _, res := range campaign.Results {
		v, err := metric.ValueOr(res.Overall, 0)
		if err != nil {
			return err
		}
		entries = append(entries, entry{res.Tool, v})
	}
	// Sort by goodness (handles lower-is-better metrics).
	for i := range entries {
		for j := i + 1; j < len(entries); j++ {
			if metric.Better(entries[j].value, entries[i].value) {
				entries[i], entries[j] = entries[j], entries[i]
			}
		}
	}
	for i, e := range entries {
		fmt.Printf("  %d. %-14s %s=%.3f\n", i+1, e.tool, metric.ID, e.value)
	}
	return nil
}
