package harness

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// FuzzMergeShards feeds arbitrary bytes, decoded as a JSON cell grid,
// to MergeShards over a fixed 6-case, 2-tool corpus under every policy.
// The merge indexes a preallocated outcome buffer, so its validation of
// the grid's shape is what keeps it in bounds: it must return an error
// or a campaign whose every ledger reconciles, and never panic.
func FuzzMergeShards(f *testing.F) {
	corpus := testCorpus(f, 6, 1)
	tools := testTools(f)[:2]

	faultyTools := make([]detectors.Tool, len(tools))
	for i, tool := range tools {
		w, err := faulty.Wrap(tool, faulty.Config{Mode: faulty.ModePanic, Rate: 0.4, Seed: 3})
		if err != nil {
			f.Fatal(err)
		}
		faultyTools[i] = w
	}
	cells, err := RunShardCtx(context.Background(), corpus, faultyTools, Options{Seed: 1, Workers: 1}, 0, len(corpus.Cases))
	if err != nil {
		f.Fatal(err)
	}
	seed := func(cells [][]CellResult) []byte {
		data, err := json.Marshal(cells)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	// Seeds: a valid grid, a truncated one, a wrong outcome count, a
	// failed cell with outcomes, and a cell whose attempts do not add up.
	valid := seed(cells)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// ok and bad are tool 0's first successful and first failed cell.
	ok, bad := -1, -1
	for c, ce := range cells[0] {
		if ce.Fault == nil && ok < 0 && len(ce.Outcomes) > 0 {
			ok = c
		}
		if ce.Fault != nil && bad < 0 {
			bad = c
		}
	}
	if ok < 0 || bad < 0 {
		f.Fatal("seed grid lacks a successful or a failed cell")
	}
	short := roundTrip(f, cells)
	short[0][ok].Outcomes = short[0][ok].Outcomes[1:]
	f.Add(seed(short))
	both := roundTrip(f, cells)
	both[0][bad].Outcomes = both[0][ok].Outcomes
	f.Add(seed(both))
	uncounted := roundTrip(f, cells)
	uncounted[1][0].Attempts = 0
	f.Add(seed(uncounted))

	f.Fuzz(func(t *testing.T, data []byte) {
		var grid [][]CellResult
		if json.Unmarshal(data, &grid) != nil {
			return
		}
		for _, policy := range []DegradedPolicy{DegradedAbort, DegradedSkip, DegradedCountMiss} {
			camp, err := MergeShards(corpus, tools, grid, policy)
			if err != nil {
				continue
			}
			if len(camp.Results) != len(tools) {
				t.Fatalf("%s: %d results for %d tools", policy, len(camp.Results), len(tools))
			}
			for _, res := range camp.Results {
				if err := res.Exec.Reconcile(); err != nil {
					t.Fatalf("%s: %s ledger: %v", policy, res.Tool, err)
				}
			}
		}
	})
}

// TestMergeShardsReadsOlderOutcomeRecords: a shard report whose outcome
// records still repeat each sink's kind, difficulty and template decodes
// (unknown fields are ignored) and merges into the same campaign as the
// current records, under every policy.
func TestMergeShardsReadsOlderOutcomeRecords(t *testing.T) {
	corpus := testCorpus(t, 10, 2)
	tools := testTools(t)[:2]
	faultyTools := faultySuite(t, tools, faulty.Config{Mode: faulty.ModePanic, Rate: 0.4, Seed: 5})
	cells, err := RunShardCtx(context.Background(), corpus, faultyTools, Options{Seed: 1, Workers: 1}, 0, len(corpus.Cases))
	if err != nil {
		t.Fatal(err)
	}
	type olderOutcome struct {
		SinkOutcome
		Kind       svclang.SinkKind
		Difficulty workload.Difficulty
		Template   string
	}
	type olderCell struct {
		Outcomes []olderOutcome `json:"outcomes,omitempty"`
		Fault    *ExecError     `json:"fault,omitempty"`
		Attempts int            `json:"attempts"`
		Retries  int            `json:"retries"`
	}
	older := make([][]olderCell, len(cells))
	for ti, row := range cells {
		older[ti] = make([]olderCell, len(row))
		for c, ce := range row {
			cs := &corpus.Cases[c]
			oc := &older[ti][c]
			oc.Fault, oc.Attempts, oc.Retries = ce.Fault, ce.Attempts, ce.Retries
			for k, o := range ce.Outcomes {
				oc.Outcomes = append(oc.Outcomes, olderOutcome{o, cs.Truths[k].Kind, cs.Difficulty, cs.Template})
			}
		}
	}
	data, err := json.Marshal(older)
	if err != nil {
		t.Fatal(err)
	}
	var decoded [][]CellResult
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	current := roundTrip(t, cells)
	for _, policy := range []DegradedPolicy{DegradedSkip, DegradedCountMiss} {
		want, err := MergeShards(corpus, tools, current, policy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MergeShards(corpus, tools, decoded, policy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: older records merge differently", policy)
		}
	}
}
