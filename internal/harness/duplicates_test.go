package harness

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// A campaign-bound pentester or taint analyser analyses each distinct
// service body once and answers renamed copies from its report memo.
// The tests below run a corpus full of renamed copies and require every
// cell to be what the unbound tool's own Analyze of that case gives.

// duplicateCorpus returns a generated corpus with a renamed copy of
// every other case interleaved after it, so copies meet their
// originals in one worker batch, in other batches and in other shards.
func duplicateCorpus(t *testing.T) *workload.Corpus {
	t.Helper()
	base := testCorpus(t, 18, 11)
	corpus := &workload.Corpus{Config: base.Config}
	for i, cs := range base.Cases {
		corpus.Cases = append(corpus.Cases, cs)
		if i%2 == 0 {
			svc := *cs.Service
			svc.Name = fmt.Sprintf("%s_copy", svc.Name)
			copied := cs
			copied.Service = &svc
			corpus.Cases = append(corpus.Cases, copied)
		}
	}
	bodies := map[svclang.Digest]bool{}
	for _, cs := range corpus.Cases {
		bodies[cs.Service.Digest()] = true
	}
	if len(bodies) >= len(base.Cases) {
		t.Fatalf("%d distinct bodies in %d cases: the generated corpus repeats no body", len(bodies), len(base.Cases))
	}
	return corpus
}

// scribbler hands its caller a copy of the wrapped tool's reports and
// then overwrites the slice the tool returned, as a careless caller
// might. A tool that shared its memoised slice would hand the damage to
// the next copy of the body.
type scribbler struct{ inner detectors.Tool }

var (
	_ detectors.CompileCacheable   = scribbler{}
	_ detectors.ExecEngineBindable = scribbler{}
)

func (s scribbler) Name() string           { return s.inner.Name() }
func (s scribbler) Class() detectors.Class { return s.inner.Class() }

func (s scribbler) Analyze(cs workload.Case, rng *stats.RNG) ([]detectors.Report, error) {
	reports, err := s.inner.Analyze(cs, rng)
	out := append([]detectors.Report(nil), reports...)
	for i := range reports {
		reports[i] = detectors.Report{Service: "scribbled", SinkID: -7}
	}
	return out, err
}

func (s scribbler) WithCompileCache(cc *cfg.Cache) detectors.Tool {
	if cct, ok := s.inner.(detectors.CompileCacheable); ok {
		return scribbler{cct.WithCompileCache(cc)}
	}
	return s
}

func (s scribbler) WithExecEngine(eng *compile.Engine) detectors.Tool {
	if et, ok := s.inner.(detectors.ExecEngineBindable); ok {
		return scribbler{et.WithExecEngine(eng)}
	}
	return s
}

// scribbledSuite is the standard suite, every tool wrapped in a
// scribbler.
func scribbledSuite(t *testing.T) []detectors.Tool {
	t.Helper()
	var out []detectors.Tool
	for _, tool := range testTools(t) {
		out = append(out, scribbler{tool})
	}
	return out
}

// TestDuplicateBodiesMatchUnboundTools is the differential proof of the
// report memo. Over a corpus of renamed copies, fault-free and under
// panic, byzantine and transient faults (retried once), every campaign
// — local at 1 and 4 workers, and sharded, sent through JSON and merged
// — must equal the reference merge of a grid whose every cell is the
// unbound tool's Analyze of that case.
func TestDuplicateBodiesMatchUnboundTools(t *testing.T) {
	corpus := duplicateCorpus(t)
	n := len(corpus.Cases)
	scenarios := []struct {
		mode    faulty.Mode
		rate    float64
		retries int
	}{
		{faulty.ModePanic, 0, 0},
		{faulty.ModePanic, 0.3, 0},
		{faulty.ModeByzantine, 0.3, 0},
		{faulty.ModeTransient, 0.3, 1},
	}
	for _, sc := range scenarios {
		cfg := faulty.Config{Mode: sc.mode, Rate: sc.rate, Seed: 3}
		for _, policy := range []DegradedPolicy{DegradedSkip, DegradedCountMiss} {
			name := fmt.Sprintf("%s/r%g/retry%d/%s", sc.mode, sc.rate, sc.retries, policy)
			opts := Options{Seed: 5, Retry: RetryPolicy{MaxRetries: sc.retries}, Degraded: policy}
			unbound, err := refCells(corpus, faultySuite(t, scribbledSuite(t), cfg), opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := refMergeCampaign(corpus, scribbledSuite(t), unbound, policy)
			for _, workers := range []int{1, 4} {
				opts.Workers = workers
				got, err := RunCtx(context.Background(), corpus, faultySuite(t, scribbledSuite(t), cfg), opts)
				if err != nil {
					t.Fatalf("%s workers %d: %v", name, workers, err)
				}
				if !sameCampaign(got, want) {
					t.Fatalf("%s workers %d: campaign differs from the unbound tools'\n%s", name, workers, firstCellDiff(got, want))
				}
			}
			grid := make([][]CellResult, len(unbound))
			for _, cut := range [][2]int{{0, 7}, {7, n}} {
				shard, err := RunShardCtx(context.Background(), corpus, faultySuite(t, scribbledSuite(t), cfg), opts, cut[0], cut[1])
				if err != nil {
					t.Fatalf("%s: shard %v: %v", name, cut, err)
				}
				for ti, row := range roundTrip(t, shard) {
					grid[ti] = append(grid[ti], row...)
				}
			}
			wantGrid := roundTrip(t, unbound)
			if !reflect.DeepEqual(grid, wantGrid) {
				t.Fatalf("%s: sharded cells differ from the unbound tools'", name)
			}
			merged, err := MergeShards(corpus, scribbledSuite(t), grid, policy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := refMergeCampaign(corpus, scribbledSuite(t), wantGrid, policy); !sameCampaign(merged, want) {
				t.Fatalf("%s: merged campaign differs from the reference merge\n%s", name, firstCellDiff(merged, want))
			}
		}
	}
}

// firstCellDiff names the first outcome or ledger that differs between
// two campaigns, to make a failure readable.
func firstCellDiff(got, want *Campaign) string {
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if !reflect.DeepEqual(g.Exec, w.Exec) {
			return fmt.Sprintf("%s ledger: %+v\nwant %+v", w.Tool, g.Exec, w.Exec)
		}
		for k := range w.Outcomes {
			if k >= len(g.Outcomes) || g.Outcomes[k] != w.Outcomes[k] {
				return fmt.Sprintf("%s outcome %d differs", w.Tool, k)
			}
		}
	}
	return "split maps differ"
}

// TestUnlabelledCasesMatchLabelledCases: a campaign keys every per-body
// table by the case's digest, so a case that carries none (a struct
// literal) or carries another service's (a labelled case whose every
// field was then replaced) must give exactly the campaign its labelled
// counterpart gives, renamed copies included.
func TestUnlabelledCasesMatchLabelledCases(t *testing.T) {
	labelled := duplicateCorpus(t)
	n := len(labelled.Cases)
	literal := &workload.Corpus{Config: labelled.Config}
	swapped := &workload.Corpus{Config: labelled.Config}
	for i, cs := range labelled.Cases {
		literal.Cases = append(literal.Cases, workload.Case{
			Service: cs.Service, Template: cs.Template, Difficulty: cs.Difficulty, Truths: cs.Truths,
		})
		other := labelled.Cases[(i+1)%n]
		other.Service, other.Template, other.Difficulty, other.Truths = cs.Service, cs.Template, cs.Difficulty, cs.Truths
		swapped.Cases = append(swapped.Cases, other)
	}
	want, err := runSeed(labelled, testTools(t), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, corpus := range map[string]*workload.Corpus{"literal": literal, "swapped": swapped} {
		got, err := runSeed(corpus, testTools(t), 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		got.Corpus = want.Corpus
		if !sameCampaign(got, want) {
			t.Fatalf("%s cases: campaign differs from the labelled corpus'\n%s", name, firstCellDiff(got, want))
		}
	}
}

// TestInvalidCopiesFailWithTheirOwnNames: two renamed copies of one
// invalid body in one campaign each fail both pentesters with an error
// that names that copy, not the first copy a tool met.
func TestInvalidCopiesFailWithTheirOwnNames(t *testing.T) {
	corpus := testCorpus(t, 6, 11)
	body := []svclang.Stmt{svclang.Assign{Name: "nope", Expr: svclang.Lit{Value: "x"}}}
	bad := map[int]string{}
	for _, name := range []string{"BadA", "BadB"} {
		bad[len(corpus.Cases)] = name
		corpus.Cases = append(corpus.Cases, workload.Case{Service: &svclang.Service{Name: name, Body: body}})
	}
	camp, err := RunCtx(context.Background(), corpus, testTools(t), Options{Seed: 5, Workers: 2, Degraded: DegradedSkip})
	if err != nil {
		t.Fatal(err)
	}
	pentesters := 0
	for _, res := range camp.Results {
		if res.Class != detectors.ClassDAST {
			continue
		}
		pentesters++
		if len(res.Exec.Faults) != len(bad) {
			t.Fatalf("%s: %d faults, want one per invalid copy: %+v", res.Tool, len(res.Exec.Faults), res.Exec.Faults)
		}
		// The harness prefixes every message with the cell's service, so
		// only the validation error's own prefix shows whose it is.
		for _, f := range res.Exec.Faults {
			if name := bad[f.Case]; f.Service != name || !strings.Contains(f.Msg, "svclang: "+name+": ") {
				t.Fatalf("%s on case %d (%s): validation error %q does not name it", res.Tool, f.Case, name, f.Msg)
			}
		}
	}
	if pentesters != 2 {
		t.Fatalf("%d DAST tools in the suite, want the 2 pentesters", pentesters)
	}
}
