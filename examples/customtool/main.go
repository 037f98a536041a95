// Custom tool: how a downstream user plugs their own detector into the
// benchmark. This example implements a naive "sink spotter" (reports every
// sink whose expression is not a plain literal), benchmarks it against the
// standard suite, combines it with a pentester, and loads a hand-written
// external corpus alongside the generated one.
//
// Run with:
//
//	go run ./examples/customtool
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// sinkSpotter is the user-defined tool: it flags every sink whose value
// expression is anything but a constant. Maximum recall, terrible
// precision — a useful lower bound.
type sinkSpotter struct{}

var _ detectors.Tool = sinkSpotter{}

func (sinkSpotter) Name() string           { return "sink-spotter" }
func (sinkSpotter) Class() detectors.Class { return detectors.ClassSAST }

// Analyze implements detectors.Tool.
func (sinkSpotter) Analyze(cs workload.Case, _ *stats.RNG) ([]detectors.Report, error) {
	if cs.Service == nil {
		return nil, fmt.Errorf("sink-spotter: nil service")
	}
	var out []detectors.Report
	for _, sk := range cs.Service.Sinks() {
		if _, isLit := sk.Expr.(svclang.Lit); isLit {
			continue
		}
		out = append(out, detectors.Report{
			Service:    cs.Service.Name,
			SinkID:     sk.ID,
			Kind:       sk.Kind,
			Confidence: 0.2,
		})
	}
	return out, nil
}

// externalCorpus is a hand-written workload in the textual format,
// demonstrating bring-your-own-benchmark.
const externalCorpus = `
# Two hand-written services: one vulnerable, one fixed.
service LookupRaw
  param user
  sink sql concat("SELECT id FROM accounts WHERE name='", user, "'")
end

service LookupFixed
  param user
  sink sql concat("SELECT id FROM accounts WHERE name='", escape_sql(user), "'")
end
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Generated corpus plus the hand-written external one.
	generated, err := vdbench.GenerateWorkload(vdbench.WorkloadConfig{
		Services:         150,
		TargetPrevalence: 0.35,
		Seed:             5,
	})
	if err != nil {
		return err
	}
	external, err := vdbench.LoadWorkload(externalCorpus)
	if err != nil {
		return err
	}
	fmt.Printf("external corpus labelled by the oracle: %d sinks, %d vulnerable\n\n",
		external.TotalSinks(), external.VulnerableSinks())

	// Standard suite + the custom tool + a combination with a pentester.
	tools, err := vdbench.StandardTools()
	if err != nil {
		return err
	}
	custom := sinkSpotter{}
	pt := detectors.NewPentester(detectors.PentesterConfig{Name: "pt", ExploreInputs: true})
	combo, err := vdbench.CombineTools("spotter∩pt", vdbench.Intersection,
		[]vdbench.Tool{custom, pt})
	if err != nil {
		return err
	}
	tools = append(tools, custom, combo)

	campaign, err := vdbench.RunCampaignCtx(context.Background(), generated, tools, vdbench.CampaignOptions{Seed: 5, Workers: 1})
	if err != nil {
		return err
	}
	recall := vdbench.MustMetric("recall")
	precision := vdbench.MustMetric("precision")
	fmt.Printf("%-14s %8s %10s\n", "tool", "recall", "precision")
	for _, res := range campaign.Results {
		r, err := recall.ValueOr(res.Overall, 0)
		if err != nil {
			return err
		}
		p, err := precision.ValueOr(res.Overall, 0)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %8.3f %10.3f\n", res.Tool, r, p)
	}
	fmt.Println("\nThe naive spotter catches everything and drowns the user in noise;")
	fmt.Println("intersecting it with a pentester restores precision at the cost of")
	fmt.Println("the pentester's blind spots.")
	return nil
}
