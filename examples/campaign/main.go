// Campaign deep-dive: run the standard suite on a larger corpus and break
// the results down by vulnerability class (CWE) and case difficulty, the
// way the original benchmarking campaigns reported them. Also computes
// threshold-free quality (ROC AUC) from tool confidence scores.
//
// Run with:
//
//	go run ./examples/campaign
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	corpus, err := vdbench.GenerateWorkload(vdbench.WorkloadConfig{
		Services:         300,
		TargetPrevalence: 0.35,
		Seed:             11,
	})
	if err != nil {
		return err
	}
	tools, err := vdbench.StandardTools()
	if err != nil {
		return err
	}
	campaign, err := vdbench.RunCampaignCtx(context.Background(), corpus, tools, vdbench.CampaignOptions{Seed: 11, Workers: 1})
	if err != nil {
		return err
	}
	f1 := vdbench.MustMetric("f1")

	fmt.Println("Per-class F1 (how tool strength varies across CWE classes):")
	fmt.Printf("%-14s", "tool")
	for _, kind := range svclang.AllSinkKinds() {
		fmt.Printf(" %8s", kind)
	}
	fmt.Println()
	for _, res := range campaign.Results {
		fmt.Printf("%-14s", res.Tool)
		for _, kind := range svclang.AllSinkKinds() {
			v, err := f1.ValueOr(res.ByKind[kind], 0)
			if err != nil {
				return err
			}
			fmt.Printf(" %8.3f", v)
		}
		fmt.Println()
	}

	fmt.Println("\nPer-difficulty recall (the hard tail separates the tools):")
	recall := vdbench.MustMetric("recall")
	difficulties := []workload.Difficulty{workload.Easy, workload.Medium, workload.Hard}
	fmt.Printf("%-14s %8s %8s %8s\n", "tool", "easy", "medium", "hard")
	for _, res := range campaign.Results {
		fmt.Printf("%-14s", res.Tool)
		for _, d := range difficulties {
			v, err := recall.ValueOr(res.ByDifficulty[d], 0)
			if err != nil {
				return err
			}
			fmt.Printf(" %8.3f", v)
		}
		fmt.Println()
	}

	fmt.Println("\nThreshold-free quality (ROC AUC over confidence scores):")
	type entry struct {
		tool string
		auc  float64
	}
	var entries []entry
	for _, res := range campaign.Results {
		auc, err := metrics.AUC(res.ScoredInstances())
		if err != nil {
			return fmt.Errorf("%s: %w", res.Tool, err)
		}
		entries = append(entries, entry{res.Tool, auc})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].auc > entries[j].auc })
	for i, e := range entries {
		fmt.Printf("  %d. %-14s AUC=%.3f\n", i+1, e.tool, e.auc)
	}
	return nil
}
