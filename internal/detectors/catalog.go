package detectors

import (
	"fmt"

	"github.com/dsn2015/vdbench/internal/workload"
)

// StandardSuite returns the benchmark campaign's tool set: six static
// tools (five configurations of the CFG taint analyser — three
// path-insensitive, two path-sensitive — plus a signature scanner), two
// penetration testers and one simulated heuristic tool. The
// mix reproduces the qualitative spread of the published campaigns —
// static analysis trades precision for recall, penetration testing the
// reverse — with each tool's wrong results caused by a documented
// mechanism rather than injected noise.
func StandardSuite() ([]Tool, error) {
	var tools []Tool

	// ts-precise: a modern taint analyser. Its only systematic blind spot
	// is the naive diagonal sanitizer model, which over-reports
	// accidentally-safe quoted splices.
	tools = append(tools, NewTaintSAST(TaintSASTConfig{
		Name:              "ts-precise",
		SinkAware:         true,
		DiagonalAdequacy:  true,
		ValidatorAware:    true,
		PruneDeadBranches: true,
		TrackLoops:        true,
		TrackStores:       true,
	}))

	// ts-aggressive: maximal recall configuration — no validator
	// recognition, no dead-code pruning. Reports everything that could
	// conceivably flow.
	tools = append(tools, NewTaintSAST(TaintSASTConfig{
		Name:             "ts-aggressive",
		SinkAware:        true,
		DiagonalAdequacy: true,
		TrackLoops:       true,
		TrackStores:      true,
	}))

	// ts-lite: a lightweight checker that trusts any sanitizer for any
	// sink and skips loop bodies.
	tools = append(tools, NewTaintSAST(TaintSASTConfig{
		Name:      "ts-lite",
		SinkAware: false,
	}))

	// grep-sast: signature matching without flow sensitivity.
	tools = append(tools, NewSignatureSAST("grep-sast"))

	// df-precise: ts-precise's knob settings plus path sensitivity.
	// Branch-condition refinement clears validated in-branch splices the
	// path-insensitive configurations false-alarm on; the diagonal
	// sanitizer model remains its one blind spot.
	tools = append(tools, NewTaintSAST(TaintSASTConfig{
		Name:              "df-precise",
		SinkAware:         true,
		DiagonalAdequacy:  true,
		ValidatorAware:    true,
		PruneDeadBranches: true,
		TrackLoops:        true,
		TrackStores:       true,
		PathSensitive:     true,
	}))

	// df-stateless: df-precise without session-store modelling — the
	// common real-world configuration that misses second-order (stored)
	// flows.
	tools = append(tools, NewTaintSAST(TaintSASTConfig{
		Name:              "df-stateless",
		SinkAware:         true,
		DiagonalAdequacy:  true,
		ValidatorAware:    true,
		PruneDeadBranches: true,
		TrackLoops:        true,
		PathSensitive:     true,
	}))

	// pt-deep: thorough penetration tester with input exploration and the
	// full payload dictionary.
	tools = append(tools, NewPentester(PentesterConfig{
		Name:          "pt-deep",
		ExploreInputs: true,
	}))

	// pt-fast: time-boxed penetration tester — one payload per kind, no
	// input exploration.
	tools = append(tools, NewPentester(PentesterConfig{
		Name:          "pt-fast",
		PayloadBudget: 1,
	}))

	// heur-ml: a simulated anomaly-scoring tool whose quality degrades
	// with case difficulty, standing in for the ML-based detectors of the
	// original campaigns.
	sim, err := NewParametric(ParametricConfig{
		Name: "heur-ml",
		TPR: map[workload.Difficulty]float64{
			workload.Easy:   0.95,
			workload.Medium: 0.75,
			workload.Hard:   0.50,
		},
		DefaultTPR: 0.7,
		FPR:        0.08,
	})
	if err != nil {
		return nil, fmt.Errorf("build heur-ml: %w", err)
	}
	tools = append(tools, sim)

	return tools, nil
}
