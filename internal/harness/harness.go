// Package harness runs benchmark campaigns: it executes every tool over
// every case of a workload corpus, scores the reports against ground
// truth at sink granularity, and aggregates confusion matrices overall,
// per vulnerability class and per difficulty bucket.
package harness

import (
	"errors"
	"fmt"
	"slices"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// SinkOutcome is the scored result of one tool on one sink: the unit the
// bootstrap analyses resample. It holds only what differs per sink and
// tool; the sink's kind is its truth's (Corpus.Cases[c].Truths[i].Kind)
// and its difficulty and template are its case's, so read them from the
// campaign's corpus.
type SinkOutcome struct {
	Service string
	SinkID  int
	// Confidence is the report confidence (zero when not flagged).
	Confidence float64
	// Vulnerable is the ground-truth label.
	Vulnerable bool
	// Flagged is true when the tool reported this sink.
	Flagged bool
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

// sinkOutcome is the unflagged outcome of truth tr of case cs.
func sinkOutcome(cs *workload.Case, tr svclang.GroundTruth) SinkOutcome {
	return SinkOutcome{Service: cs.Service.Name, SinkID: tr.SinkID, Vulnerable: tr.Vulnerable}
}

// scoreCase scores a tool's reports on one case into dst, the case's
// arena slot: one outcome per truth, in truth order. Every report is
// checked before any outcome is written, so a rejected attempt leaves
// dst untouched. The case's Truths list is the valid sink set, scanned
// linearly. A sink is flagged by its first report; a later report raises
// its confidence only if strictly higher. Every truth carrying a
// reported sink ID is flagged.
func scoreCase(dst []SinkOutcome, tool detectors.Tool, cs workload.Case, reports []detectors.Report) error {
	for _, r := range reports {
		if r.Service != cs.Service.Name {
			return fmt.Errorf("harness: %s reported foreign service %q while analysing %q", tool.Name(), r.Service, cs.Service.Name)
		}
		if !slices.ContainsFunc(cs.Truths, func(tr svclang.GroundTruth) bool { return tr.SinkID == r.SinkID }) {
			return fmt.Errorf("harness: %s reported unknown sink %d in %s", tool.Name(), r.SinkID, cs.Service.Name)
		}
	}
	for i, tr := range cs.Truths {
		dst[i] = sinkOutcome(&cs, tr)
	}
	for _, r := range reports {
		for i := range dst {
			if o := &dst[i]; o.SinkID == r.SinkID && (!o.Flagged || r.Confidence > o.Confidence) {
				o.Flagged, o.Confidence = true, r.Confidence
			}
		}
	}
	return nil
}

// mergeCampaign folds per-(tool, case) execution records back into a
// Campaign in corpus order. Because aggregation happens tool-by-tool,
// case-by-case in the same order the serial loop used, the result is
// identical to serial execution regardless of the order the records were
// produced in — or, for distributed campaigns, of which worker process
// produced them. Failed cells are scored per the degraded policy:
// skipped (absent from the matrices) or counted as misses via
// synthesized unflagged outcomes; either way the ledger records them.
//
// The fold is per case: a case's outcomes are counted once, their sum
// is added to Overall, ByDifficulty and ByTemplate (the case's
// difficulty and template), and each outcome to ByKind under its
// truth's kind. A case that is skipped or has no sinks adds nothing, so
// every split map holds exactly the keys a per-sink fold would create.
// The ledger's fault lists are sized by a first count of the failed
// cells.
//
// arenas, when non-nil, are the engine's per-tool outcome arenas that
// execs' Outcomes slot into; each is folded in place and becomes the
// tool's Outcomes. Under DegradedSkip the arena compacts downward, under
// DegradedCountMiss the degraded outcomes fill the failed case's slot.
// With nil arenas (decoded shard records) the outcomes are copied into
// a fresh buffer by the same fold.
func mergeCampaign(corpus *workload.Corpus, tools []detectors.Tool, execs [][]CellResult, arenas [][]SinkOutcome, policy DegradedPolicy) *Campaign {
	camp := &Campaign{Corpus: corpus, Results: make([]ToolResult, 0, len(tools))}
	total := corpus.TotalSinks()
	templates := 0 // the previous tool's template count sizes the next map
	for toolIdx, tool := range tools {
		row := execs[toolIdx]
		res := ToolResult{
			Tool:         tool.Name(),
			Class:        tool.Class(),
			ByKind:       map[svclang.SinkKind]metrics.Confusion{},
			ByDifficulty: map[workload.Difficulty]metrics.Confusion{},
			ByTemplate:   make(map[string]metrics.Confusion, templates),
		}
		failed := 0
		for c := range row {
			if row[c].Fault != nil {
				failed++
			}
		}
		if failed > 0 {
			res.Exec.FailedCases = make([]int, 0, failed)
			res.Exec.Faults = make([]ExecError, 0, failed)
		}
		var buf []SinkOutcome
		if arenas != nil {
			buf = arenas[toolIdx]
		} else {
			buf = make([]SinkOutcome, total)
		}
		w := 0
		for caseIdx := range corpus.Cases {
			cs := &corpus.Cases[caseIdx]
			ce := &row[caseIdx]
			res.Exec.Cases++
			res.Exec.Attempts += ce.Attempts
			res.Exec.Retries += ce.Retries
			dst := buf[w : w+len(cs.Truths)]
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
				for i, tr := range cs.Truths {
					dst[i] = sinkOutcome(cs, tr)
					dst[i].Degraded = true
				}
			} else {
				res.Exec.Succeeded++
				// In an arena, the cell's slot may overlap dst after
				// skipped cases: copy first, then fold from dst only.
				copy(dst, ce.Outcomes)
			}
			w += len(dst)
			if len(dst) == 0 {
				continue
			}
			var cnt [4]int
			for i := range dst {
				code := dst[i].code()
				cnt[code]++
				kind := cs.Truths[i].Kind
				res.ByKind[kind] = res.ByKind[kind].Add(codeCells[code])
			}
			sum := foldCounts(&cnt)
			res.Overall = res.Overall.Add(sum)
			res.ByDifficulty[cs.Difficulty] = res.ByDifficulty[cs.Difficulty].Add(sum)
			res.ByTemplate[cs.Template] = res.ByTemplate[cs.Template].Add(sum)
		}
		res.Outcomes = buf[:w]
		templates = len(res.ByTemplate)
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
