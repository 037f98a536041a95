package harness

import (
	"errors"
	"fmt"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/workload"
)

// replayTool answers every case of a finished campaign with exactly the
// reports its recorded outcomes imply: one report per flagged sink,
// carrying the sink's kind and the recorded confidence. Scoring keeps
// only the highest confidence per flagged sink, which is what an outcome
// records, so re-scoring a replayed case reproduces its outcomes. A case
// the campaign failed replays as a permanent (non-retryable) error.
//
// Replay tools let an experiment re-run a campaign under a different
// execution policy (fault injection, retries, degraded scoring) without
// re-executing the tools. They ignore their RNG, hold no mutable state
// and are safe for concurrent use.
type replayTool struct {
	name  string
	class detectors.Class
	// cases maps a service name to its corpus index; shared by every
	// replay tool of one campaign.
	cases map[string]int
	// reports holds each case's reports; callers must not modify them.
	reports [][]detectors.Report
	faults  map[int]error
}

var _ detectors.Tool = (*replayTool)(nil)

func (t *replayTool) Name() string           { return t.name }
func (t *replayTool) Class() detectors.Class { return t.class }

// Analyze implements detectors.Tool.
func (t *replayTool) Analyze(cs workload.Case, _ *stats.RNG) ([]detectors.Report, error) {
	c, ok := t.cases[cs.Service.Name]
	if !ok {
		return nil, fmt.Errorf("harness: replay of %s has no case %q", t.name, cs.Service.Name)
	}
	if err := t.faults[c]; err != nil {
		return nil, err
	}
	return t.reports[c], nil
}

// ReplayTools returns one replay tool per result of camp, in campaign
// order, with each result's name and class. Running them over camp's
// corpus with camp's fault-free execution options reproduces camp's
// results.
func ReplayTools(camp *Campaign) ([]detectors.Tool, error) {
	corpus := camp.Corpus
	cases := make(map[string]int, len(corpus.Cases))
	for i, cs := range corpus.Cases {
		cases[cs.Service.Name] = i
	}
	tools := make([]detectors.Tool, len(camp.Results))
	for i := range camp.Results {
		res := &camp.Results[i]
		t := &replayTool{
			name:    res.Tool,
			class:   res.Class,
			cases:   cases,
			reports: make([][]detectors.Report, len(corpus.Cases)),
			faults:  make(map[int]error, len(res.Exec.Faults)),
		}
		for _, f := range res.Exec.Faults {
			t.faults[f.Case] = errors.New(f.Msg)
		}
		outs := res.Outcomes
		for c, cs := range corpus.Cases {
			n := len(cs.Truths)
			if _, failed := t.faults[c]; failed {
				// Count-as-miss keeps the failed case's synthesized
				// outcomes; skip drops them.
				if n > 0 && len(outs) >= n && outs[0].Degraded && outs[0].Service == cs.Service.Name {
					outs = outs[n:]
				}
				continue
			}
			if len(outs) < n {
				return nil, fmt.Errorf("harness: replay of %s: outcomes end before case %d", res.Tool, c)
			}
			for k, tr := range cs.Truths {
				o := outs[k]
				if o.Service != cs.Service.Name || o.SinkID != tr.SinkID {
					return nil, fmt.Errorf("harness: replay of %s: outcome %s/%d does not match case %d sink %d",
						res.Tool, o.Service, o.SinkID, c, tr.SinkID)
				}
				if o.Flagged {
					t.reports[c] = append(t.reports[c], detectors.Report{
						Service: o.Service, SinkID: o.SinkID, Kind: o.Kind, Confidence: o.Confidence,
					})
				}
			}
			outs = outs[n:]
		}
		if len(outs) != 0 {
			return nil, fmt.Errorf("harness: replay of %s: %d outcomes beyond the corpus", res.Tool, len(outs))
		}
		tools[i] = t
	}
	return tools, nil
}
