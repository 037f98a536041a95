// Package harness runs benchmark campaigns: it executes every tool over
// every case of a workload corpus, scores the reports against ground
// truth at sink granularity, and aggregates confusion matrices overall,
// per vulnerability class and per difficulty bucket.
package harness

import (
	"context"
	"errors"
	"fmt"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// SinkOutcome is the scored result of one tool on one sink: the unit the
// bootstrap analyses resample.
type SinkOutcome struct {
	Service    string
	SinkID     int
	Kind       svclang.SinkKind
	Difficulty workload.Difficulty
	// Template names the workload pattern the sink came from.
	Template string
	// Vulnerable is the ground-truth label.
	Vulnerable bool
	// Flagged is true when the tool reported this sink.
	Flagged bool
	// Confidence is the report confidence (zero when not flagged).
	Confidence float64
	// Degraded is true for outcomes synthesized by the count-as-miss
	// policy when the tool failed on the case: the sink was never
	// actually analysed. Synthesized outcomes are always unflagged.
	Degraded bool
}

// Confusion classifies the outcome into its confusion-matrix cell.
func (o SinkOutcome) Confusion() metrics.Confusion {
	return codeCells[o.code()]
}

// ToolResult aggregates one tool's campaign outcome.
type ToolResult struct {
	// Tool is the tool's display name; Class its technology family.
	Tool  string
	Class detectors.Class
	// Overall is the pooled (micro) confusion matrix over all sinks.
	Overall metrics.Confusion
	// ByKind, ByDifficulty and ByTemplate split the matrix by
	// vulnerability class, case difficulty and workload pattern.
	ByKind       map[svclang.SinkKind]metrics.Confusion
	ByDifficulty map[workload.Difficulty]metrics.Confusion
	ByTemplate   map[string]metrics.Confusion
	// Outcomes lists the per-sink outcomes in corpus order. Under
	// DegradedSkip the sinks of failed cases are absent; under
	// DegradedCountMiss they appear unflagged with Degraded set.
	Outcomes []SinkOutcome
	// Exec is the execution ledger: how many attempts the tool's cases
	// took and which cases failed how. A fault-free campaign has
	// Succeeded == Cases == Attempts and no faults.
	Exec ExecLedger
}

// MetricValue computes a metric on the overall matrix.
func (r *ToolResult) MetricValue(m metrics.Metric) (float64, error) {
	return m.Value(r.Overall)
}

// Campaign is the result of running a tool suite over a corpus.
type Campaign struct {
	// Corpus is the workload the campaign ran on.
	Corpus *workload.Corpus
	// Results holds one entry per tool, in the order supplied.
	Results []ToolResult
}

// validate checks the campaign inputs shared by RunCtx and RunShardCtx.
func validate(corpus *workload.Corpus, tools []detectors.Tool) error {
	if corpus == nil || len(corpus.Cases) == 0 {
		return errors.New("harness: empty corpus")
	}
	if len(tools) == 0 {
		return errors.New("harness: no tools")
	}
	names := make(map[string]bool, len(tools))
	for _, tool := range tools {
		if tool == nil {
			return errors.New("harness: nil tool")
		}
		if names[tool.Name()] {
			return fmt.Errorf("harness: duplicate tool name %q", tool.Name())
		}
		names[tool.Name()] = true
	}
	return nil
}

// validSinkSets precomputes, per case, the set of sink IDs a tool may
// legitimately report. The sets depend only on the corpus, so they are
// built once and shared across every tool (and every worker: read-only
// after construction).
func validSinkSets(corpus *workload.Corpus) []map[int]bool {
	sets := make([]map[int]bool, len(corpus.Cases))
	for i, cs := range corpus.Cases {
		m := make(map[int]bool, len(cs.Truths))
		for _, tr := range cs.Truths {
			m[tr.SinkID] = true
		}
		sets[i] = m
	}
	return sets
}

// analyzeCase runs one tool over one case and scores the reports into
// per-sink outcomes in truth order. It touches no shared mutable state, so
// distinct (tool, case) pairs can be analysed concurrently as long as each
// gets its own RNG.
func analyzeCase(tool detectors.Tool, cs workload.Case, rng *stats.RNG, valid map[int]bool) ([]SinkOutcome, error) {
	return analyzeCaseCtx(context.Background(), tool, cs, rng, valid)
}

// analyzeCaseCtx is analyzeCase with cancellation: tools implementing
// detectors.ContextAnalyzer receive ctx (the execution engine passes the
// per-attempt deadline context); plain tools are invoked as before.
func analyzeCaseCtx(ctx context.Context, tool detectors.Tool, cs workload.Case, rng *stats.RNG, valid map[int]bool) ([]SinkOutcome, error) {
	var reports []detectors.Report
	var err error
	if ca, ok := tool.(detectors.ContextAnalyzer); ok {
		reports, err = ca.AnalyzeContext(ctx, cs, rng)
	} else {
		reports, err = tool.Analyze(cs, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", tool.Name(), cs.Service.Name, err)
	}
	flagged := make(map[int]float64, len(reports))
	for _, r := range reports {
		if r.Service != cs.Service.Name {
			return nil, fmt.Errorf("harness: %s reported foreign service %q while analysing %q", tool.Name(), r.Service, cs.Service.Name)
		}
		if !valid[r.SinkID] {
			return nil, fmt.Errorf("harness: %s reported unknown sink %d in %s", tool.Name(), r.SinkID, cs.Service.Name)
		}
		if prev, dup := flagged[r.SinkID]; !dup || r.Confidence > prev {
			flagged[r.SinkID] = r.Confidence
		}
	}
	out := make([]SinkOutcome, len(cs.Truths))
	for i, tr := range cs.Truths {
		conf, isFlagged := flagged[tr.SinkID]
		out[i] = SinkOutcome{
			Service:    cs.Service.Name,
			SinkID:     tr.SinkID,
			Kind:       tr.Kind,
			Difficulty: cs.Difficulty,
			Template:   cs.Template,
			Vulnerable: tr.Vulnerable,
			Flagged:    isFlagged,
			Confidence: conf,
		}
	}
	return out, nil
}

// mergeCampaign folds per-(tool, case) execution records back into a
// Campaign in corpus order. Because aggregation happens tool-by-tool,
// case-by-case in the same order the serial loop used, the result is
// identical to serial execution regardless of the order the records were
// produced in — or, for distributed campaigns, of which worker process
// produced them. Failed cells are scored per the degraded policy:
// skipped (absent from the matrices) or counted as misses via
// synthesized unflagged outcomes; either way the ledger records them.
func mergeCampaign(corpus *workload.Corpus, tools []detectors.Tool, execs [][]CellResult, policy DegradedPolicy) *Campaign {
	camp := &Campaign{Corpus: corpus}
	total := corpus.TotalSinks()
	for toolIdx, tool := range tools {
		res := ToolResult{
			Tool:         tool.Name(),
			Class:        tool.Class(),
			ByKind:       map[svclang.SinkKind]metrics.Confusion{},
			ByDifficulty: map[workload.Difficulty]metrics.Confusion{},
			ByTemplate:   map[string]metrics.Confusion{},
			Outcomes:     make([]SinkOutcome, 0, total),
		}
		for caseIdx := range corpus.Cases {
			ce := execs[toolIdx][caseIdx]
			res.Exec.Cases++
			res.Exec.Attempts += ce.Attempts
			res.Exec.Retries += ce.Retries
			outcomes := ce.Outcomes
			if ce.Fault != nil {
				res.Exec.Failed++
				res.Exec.FailedCases = append(res.Exec.FailedCases, caseIdx)
				res.Exec.Faults = append(res.Exec.Faults, *ce.Fault)
				switch ce.Fault.Kind {
				case FailPanic:
					res.Exec.RecoveredPanics++
				case FailTimeout:
					res.Exec.Timeouts++
				default:
					res.Exec.Errors++
				}
				if policy != DegradedCountMiss {
					continue
				}
				outcomes = degradedOutcomes(corpus.Cases[caseIdx])
			} else {
				res.Exec.Succeeded++
			}
			for _, outcome := range outcomes {
				cell := outcome.Confusion()
				res.Overall = res.Overall.Add(cell)
				res.ByKind[outcome.Kind] = res.ByKind[outcome.Kind].Add(cell)
				res.ByDifficulty[outcome.Difficulty] = res.ByDifficulty[outcome.Difficulty].Add(cell)
				res.ByTemplate[outcome.Template] = res.ByTemplate[outcome.Template].Add(cell)
				res.Outcomes = append(res.Outcomes, outcome)
			}
		}
		camp.Results = append(camp.Results, res)
	}
	return camp
}

// ResultFor returns the result for a tool by name.
func (c *Campaign) ResultFor(tool string) (*ToolResult, bool) {
	for i := range c.Results {
		if c.Results[i].Tool == tool {
			return &c.Results[i], true
		}
	}
	return nil, false
}

// ToolNames lists the tools in campaign order.
func (c *Campaign) ToolNames() []string {
	out := make([]string, len(c.Results))
	for i, r := range c.Results {
		out[i] = r.Tool
	}
	return out
}

// MetricScores computes the goodness-oriented score of every tool under
// one metric (lower-is-better metrics are negated so that higher is always
// better). Tools on which the metric is undefined receive the fallback.
func (c *Campaign) MetricScores(m metrics.Metric, fallback float64) ([]float64, error) {
	out := make([]float64, len(c.Results))
	for i := range c.Results {
		v, err := m.ValueOr(c.Results[i].Overall, fallback)
		if err != nil {
			return nil, fmt.Errorf("harness: %s on %s: %w", m.ID, c.Results[i].Tool, err)
		}
		out[i] = m.Goodness(v)
	}
	return out, nil
}

// ScoredInstances converts a tool's outcomes into scored instances for
// threshold-free analysis (ROC / average precision). Unflagged sinks get
// score zero.
func (r *ToolResult) ScoredInstances() []metrics.ScoredInstance {
	out := make([]metrics.ScoredInstance, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = metrics.ScoredInstance{Score: o.Confidence, Positive: o.Vulnerable}
	}
	return out
}
