package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// This file keeps the per-cell scoring and the copying merge the
// outcome arenas replaced, as references: every cell scores into a
// fresh slice against a map of valid sink IDs, and the merge appends
// every outcome into a new per-tool slice. The differential tests below
// require the arena engine to be deep-equal to them.

// refValidSinkSets is the reference's per-case set of sink IDs a tool
// may report.
func refValidSinkSets(corpus *workload.Corpus) []map[int]bool {
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

// refAnalyzeCaseCtx runs one tool over one case and scores the reports
// into a fresh per-sink outcome slice in truth order.
func refAnalyzeCaseCtx(ctx context.Context, tool detectors.Tool, cs workload.Case, rng *stats.RNG, valid map[int]bool) ([]SinkOutcome, error) {
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
			Vulnerable: tr.Vulnerable,
			Flagged:    isFlagged,
			Confidence: conf,
		}
	}
	return out, nil
}

// refDegradedOutcomes synthesizes the count-as-miss outcomes of a
// failed case.
func refDegradedOutcomes(cs workload.Case) []SinkOutcome {
	out := make([]SinkOutcome, len(cs.Truths))
	for i, tr := range cs.Truths {
		out[i] = SinkOutcome{
			Service:    cs.Service.Name,
			SinkID:     tr.SinkID,
			Vulnerable: tr.Vulnerable,
			Degraded:   true,
		}
	}
	return out
}

// refMergeCampaign folds the cell grid into a Campaign sink by sink,
// copying every outcome into a fresh per-tool slice. Each outcome is
// added to every split map under its truth's kind and its case's
// difficulty and template, read from the corpus.
func refMergeCampaign(corpus *workload.Corpus, tools []detectors.Tool, execs [][]CellResult, policy DegradedPolicy) *Campaign {
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
			cs := corpus.Cases[caseIdx]
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
				outcomes = refDegradedOutcomes(cs)
			} else {
				res.Exec.Succeeded++
			}
			for k, outcome := range outcomes {
				cell := outcome.Confusion()
				kind := cs.Truths[k].Kind
				res.Overall = res.Overall.Add(cell)
				res.ByKind[kind] = res.ByKind[kind].Add(cell)
				res.ByDifficulty[cs.Difficulty] = res.ByDifficulty[cs.Difficulty].Add(cell)
				res.ByTemplate[cs.Template] = res.ByTemplate[cs.Template].Add(cell)
				res.Outcomes = append(res.Outcomes, outcome)
			}
		}
		camp.Results = append(camp.Results, res)
	}
	return camp
}

// refRun is a serial campaign on the reference scoring and merge: no
// deadline, no backoff, one fresh RNG copy per attempt split lazily in
// corpus order, the first fault fatal under DegradedAbort.
func refRun(t *testing.T, corpus *workload.Corpus, tools []detectors.Tool, opts Options) (*Campaign, error) {
	t.Helper()
	tools = bindExecEngine(bindCompileCache(tools), compile.NewEngine())
	cells, err := refCells(corpus, tools, opts)
	if err != nil {
		return nil, err
	}
	return refMergeCampaign(corpus, tools, cells, opts.Degraded), nil
}

// refCells runs refRun's cells on tools as given, bound or not.
func refCells(corpus *workload.Corpus, tools []detectors.Tool, opts Options) ([][]CellResult, error) {
	valid := refValidSinkSets(corpus)
	cells := make([][]CellResult, len(tools))
	for ti, tool := range tools {
		cells[ti] = make([]CellResult, len(corpus.Cases))
		toolRNG := stats.NewRNG(opts.Seed ^ (uint64(ti)+1)*0x9e3779b97f4a7c15)
		for c, cs := range corpus.Cases {
			caseRNG := toolRNG.Split()
			ce := &cells[ti][c]
			for attempt := 1; ; attempt++ {
				ce.Attempts++
				outs, kind, err := refAttempt(tool, cs, *caseRNG, valid[c])
				if err == nil {
					ce.Outcomes = outs
					break
				}
				if kind == FailError && detectors.IsRetryable(err) && attempt <= opts.Retry.MaxRetries {
					ce.Retries++
					continue
				}
				ce.Fault = &ExecError{Tool: tool.Name(), Service: cs.Service.Name, Case: c,
					Attempt: attempt, Kind: kind, Msg: err.Error(), err: err}
				break
			}
			if ce.Fault != nil && opts.Degraded == DegradedAbort {
				return nil, ce.Fault.err
			}
		}
	}
	return cells, nil
}

// refAttempt is one reference attempt under panic isolation.
func refAttempt(tool detectors.Tool, cs workload.Case, rng stats.RNG, valid map[int]bool) (outs []SinkOutcome, kind FailureKind, err error) {
	defer func() {
		if v := recover(); v != nil {
			outs, kind = nil, FailPanic
			err = fmt.Errorf("harness: %s on %s: recovered panic: %v", tool.Name(), cs.Service.Name, v)
		}
	}()
	outs, err = refAnalyzeCaseCtx(context.Background(), tool, cs, &rng, valid)
	if err != nil {
		return nil, FailError, err
	}
	return outs, 0, nil
}

// repeatTool reports every sink of a case zero to three times with
// confidences drawn from confs, to hit every rule of the scoring
// contract: a first report, a strictly higher, an equal or a lower
// repeat.
type repeatTool struct{ confs []float64 }

func (repeatTool) Name() string           { return "repeat" }
func (repeatTool) Class() detectors.Class { return detectors.ClassSAST }

func (r repeatTool) Analyze(cs workload.Case, rng *stats.RNG) ([]detectors.Report, error) {
	var out []detectors.Report
	for _, tr := range cs.Truths {
		for k := rng.Intn(4); k > 0; k-- {
			out = append(out, detectors.Report{Service: cs.Service.Name, SinkID: tr.SinkID, Kind: tr.Kind,
				Confidence: r.confs[rng.Intn(len(r.confs))]})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// differentialBase is the tool set the differential tests wrap with
// faults: three standard tools and the repeat tool. Only a campaign
// that stays in process may carry NaN and -0 confidences: JSON has no
// NaN.
func differentialBase(t *testing.T, inProcess bool) []detectors.Tool {
	t.Helper()
	confs := []float64{0.25, 0.5, 0.5, 0.75, 1}
	if inProcess {
		confs = append(confs, math.NaN(), math.Copysign(0, -1))
	}
	return append(testTools(t)[:3:3], repeatTool{confs})
}

// faultScenario is one fault-injection setting of the differential
// sweep.
type faultScenario struct {
	mode    faulty.Mode
	retries int
}

var differentialScenarios = []faultScenario{
	{faulty.ModePanic, 0},
	{faulty.ModeByzantine, 0},
	{faulty.ModeTransient, 0},
	{faulty.ModeTransient, 1},
}

// sameCampaign reports whether two campaigns are deep-equal, treating
// NaN confidences as equal to each other (reflect.DeepEqual never
// does).
func sameCampaign(a, b *Campaign) bool {
	return reflect.DeepEqual(nanFree(a), nanFree(b))
}

// nanFree returns a copy of camp whose NaN confidences are replaced by
// a sentinel, so reflect.DeepEqual can compare the rest.
func nanFree(camp *Campaign) *Campaign {
	if camp == nil {
		return nil
	}
	out := *camp
	out.Results = make([]ToolResult, len(camp.Results))
	for i, res := range camp.Results {
		res.Outcomes = append([]SinkOutcome(nil), res.Outcomes...)
		for k := range res.Outcomes {
			if math.IsNaN(res.Outcomes[k].Confidence) {
				res.Outcomes[k].Confidence = -42
			}
		}
		out.Results[i] = res
	}
	return &out
}

// TestRunCtxMatchesReference is the differential proof of the outcome
// arenas: over every degraded policy, fault mode, fault rate and worker
// count, RunCtx must be deep-equal — outcomes, every By* map and the
// ledgers — to the serial reference that scores each cell into a fresh
// slice and merges by copying. Under DegradedAbort both must fail with
// the same error text.
func TestRunCtxMatchesReference(t *testing.T) {
	corpus := testCorpus(t, 24, 3)
	base := differentialBase(t, true)
	var failed int
	for _, policy := range []DegradedPolicy{DegradedSkip, DegradedCountMiss, DegradedAbort} {
		for _, sc := range differentialScenarios {
			for _, rate := range []float64{0, 0.1, 0.5, 1} {
				name := fmt.Sprintf("%s/%s/retry%d/r%g", policy, sc.mode, sc.retries, rate)
				cfg := faulty.Config{Mode: sc.mode, Rate: rate, Seed: 4}
				opts := Options{Seed: 9, Retry: RetryPolicy{MaxRetries: sc.retries}, Degraded: policy}
				want, wantErr := refRun(t, corpus, faultySuite(t, base, cfg), opts)
				for _, workers := range []int{1, 4, 13} {
					opts.Workers = workers
					got, err := RunCtx(context.Background(), corpus, faultySuite(t, base, cfg), opts)
					if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
						t.Fatalf("%s workers %d: error %v, reference %v", name, workers, err, wantErr)
					}
					if !sameCampaign(got, want) {
						t.Fatalf("%s workers %d: campaign differs from the reference", name, workers)
					}
				}
				if want != nil {
					for _, res := range want.Results {
						failed += res.Exec.Failed
					}
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no cell failed anywhere in the sweep; it tests no degraded merge")
	}
}

// TestWatchdogPathMatchesReference: plain tools under a per-tool
// deadline run on watchdog goroutines and are scored on the worker
// after the select. The campaign must equal the reference's, as on the
// inline path.
func TestWatchdogPathMatchesReference(t *testing.T) {
	corpus := testCorpus(t, 16, 7)
	base := differentialBase(t, true)
	for _, tool := range base {
		if _, ok := tool.(detectors.ContextAnalyzer); ok {
			t.Fatalf("%s observes its context; it would not take the watchdog path", tool.Name())
		}
	}
	want, err := refRun(t, corpus, base, Options{Seed: 2, Degraded: DegradedSkip})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := RunCtx(context.Background(), corpus, base,
			Options{Seed: 2, Workers: workers, PerToolTimeout: time.Minute, Degraded: DegradedSkip})
		if err != nil {
			t.Fatal(err)
		}
		if !sameCampaign(got, want) {
			t.Fatalf("workers %d: watchdog campaign differs from the reference", workers)
		}
	}
}

// roundTrip sends a shard's cell grid through JSON, as the distributed
// protocol does.
func roundTrip(t testing.TB, cells [][]CellResult) [][]CellResult {
	t.Helper()
	data, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]CellResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMergeShardsMatchesReference: shards cut at several boundaries and
// sent through JSON merge, under every policy, exactly as the reference
// merge folds the same decoded grid, and — up to the original error
// values, which do not cross the wire — as RunCtx.
func TestMergeShardsMatchesReference(t *testing.T) {
	corpus := testCorpus(t, 13, 5)
	n := len(corpus.Cases)
	base := differentialBase(t, false)
	cuts := [][]int{{0, n}, {0, 1, n}, {0, 4, 5, 11, n}}
	for _, sc := range differentialScenarios {
		cfg := faulty.Config{Mode: sc.mode, Rate: 0.5, Seed: 2}
		opts := Options{Seed: 3, Workers: 2, Retry: RetryPolicy{MaxRetries: sc.retries}}
		for _, cut := range cuts {
			grid := make([][]CellResult, len(base))
			for i := 0; i+1 < len(cut); i++ {
				shard, err := RunShardCtx(context.Background(), corpus, faultySuite(t, base, cfg), opts, cut[i], cut[i+1])
				if err != nil {
					t.Fatal(err)
				}
				for ti, row := range roundTrip(t, shard) {
					grid[ti] = append(grid[ti], row...)
				}
			}
			for _, policy := range []DegradedPolicy{DegradedSkip, DegradedCountMiss, DegradedAbort} {
				name := fmt.Sprintf("%s/retry%d/cuts%v/%s", sc.mode, sc.retries, cut, policy)
				got, err := MergeShards(corpus, base, grid, policy)
				local, localErr := RunCtx(context.Background(), corpus, faultySuite(t, base, cfg),
					Options{Seed: opts.Seed, Workers: 1, Retry: opts.Retry, Degraded: policy})
				if (err == nil) != (localErr == nil) || (err != nil && err.Error() != localErr.Error()) {
					t.Fatalf("%s: merge error %v, local %v", name, err, localErr)
				}
				if err != nil {
					continue
				}
				if want := refMergeCampaign(corpus, base, grid, policy); !sameCampaign(got, want) {
					t.Fatalf("%s: merged campaign differs from the reference merge", name)
				}
				for i := range local.Results {
					for k := range local.Results[i].Exec.Faults {
						local.Results[i].Exec.Faults[k].err = nil
					}
				}
				if !sameCampaign(got, local) {
					t.Fatalf("%s: merged campaign differs from RunCtx", name)
				}
			}
		}
	}
}

// fixedTool answers every case with the same reports.
type fixedTool struct{ reports []detectors.Report }

func (fixedTool) Name() string           { return "fixed" }
func (fixedTool) Class() detectors.Class { return detectors.ClassSAST }
func (f fixedTool) Analyze(workload.Case, *stats.RNG) ([]detectors.Report, error) {
	return f.reports, nil
}

// TestScoreCaseMatchesReference pins the scoring contract on crafted
// report lists, including the error paths and a case that repeats a
// sink ID: the same outcomes or the same error text as the reference,
// and a rejected attempt leaves the slot untouched.
func TestScoreCaseMatchesReference(t *testing.T) {
	var cs workload.Case
	for _, c := range testCorpus(t, 20, 1).Cases {
		if len(c.Truths) >= 2 {
			cs = c
			break
		}
	}
	if cs.Service == nil {
		t.Fatal("no case has two sinks")
	}
	dup := cs
	dup.Truths = append(append([]svclang.GroundTruth(nil), cs.Truths...), cs.Truths[0])
	svc, id0, id1 := cs.Service.Name, cs.Truths[0].SinkID, cs.Truths[1].SinkID
	rep := func(service string, id int, conf float64) detectors.Report {
		return detectors.Report{Service: service, SinkID: id, Confidence: conf}
	}
	lists := [][]detectors.Report{
		nil,
		{rep(svc, id0, 0.5)},
		{rep(svc, id0, 0.5), rep(svc, id0, 0.7), rep(svc, id1, 0.3), rep(svc, id1, 0.2)},
		{rep(svc, id0, math.NaN()), rep(svc, id0, 0.9)},
		{rep(svc, id0, 0.4), rep(svc, id0, math.NaN())},
		{rep(svc, id0, math.Copysign(0, -1)), rep(svc, id0, 0)},
		{rep(svc, id0, 0.5), rep("elsewhere", id0, 0.5)},
		{rep(svc, id0, 0.5), rep(svc, -1, 0.5)},
		{rep(svc, -1, 0.5), rep("elsewhere", id0, 0.5)},
		{rep("elsewhere", -1, 0.5)},
	}
	for _, c := range []workload.Case{cs, dup} {
		valid := refValidSinkSets(&workload.Corpus{Cases: []workload.Case{c}})[0]
		for i, reports := range lists {
			tool := fixedTool{reports}
			want, wantErr := refAnalyzeCaseCtx(context.Background(), tool, c, nil, valid)
			got := make([]SinkOutcome, len(c.Truths))
			for k := range got {
				got[k].Service = "untouched"
			}
			err := scoreCase(got, tool, c, reports)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("list %d (%d sinks): error %v, reference %v", i, len(c.Truths), err, wantErr)
			}
			if err != nil {
				for k := range got {
					if got[k] != (SinkOutcome{Service: "untouched"}) {
						t.Fatalf("list %d: rejected attempt wrote outcome %d: %+v", i, k, got[k])
					}
				}
				continue
			}
			// Sprint compares NaN and -0 confidences exactly.
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("list %d (%d sinks): outcomes\n%+v\nreference\n%+v", i, len(c.Truths), got, want)
			}
		}
	}
}

// keySetCorpus is a small corpus in which some cases own their split
// keys: every third case gets a template, a difficulty and sink kinds no
// other case has, and two sinkless cases are appended, each with a
// template and difficulty of its own. It returns the corpus and the
// indices of those cases, whose keys appear in a tool's split maps
// exactly when the fold counted them.
func keySetCorpus(t *testing.T) (*workload.Corpus, []int) {
	t.Helper()
	corpus := testCorpus(t, 12, 2)
	var own []int
	for c := range corpus.Cases {
		if c%3 != 0 {
			continue
		}
		cs := &corpus.Cases[c]
		cs.Template = fmt.Sprintf("own-%d", c)
		cs.Difficulty = workload.Difficulty(100 + c)
		cs.Truths = slices.Clone(cs.Truths)
		for k := range cs.Truths {
			cs.Truths[k].Kind = svclang.SinkKind(100 + c)
		}
		own = append(own, c)
	}
	for i := range 2 {
		cs := corpus.Cases[3*i+1]
		cs.Truths = nil
		cs.Template = fmt.Sprintf("sinkless-%d", i)
		cs.Difficulty = workload.Difficulty(200 + i)
		corpus.Cases = append(corpus.Cases, cs)
		own = append(own, len(corpus.Cases)-1)
	}
	return corpus, own
}

// TestMergeKeySetsMatchReference pins the per-case fold's split maps,
// key sets included, to the reference's per-sink fold: a sinkless case
// and a failed case under the skip policy add no key, a failed case
// under count-miss adds its keys, and under abort both fail alike. It
// runs fault-free and with panics on 40% of the cases, locally and
// through shards sent over JSON.
func TestMergeKeySetsMatchReference(t *testing.T) {
	corpus, own := keySetCorpus(t)
	base := []detectors.Tool{repeatTool{[]float64{0.25, 0.5, 1}}, silentTool{"silent"}}
	var counted, dropped int
	for _, rate := range []float64{0, 0.4} {
		cfg := faulty.Config{Mode: faulty.ModePanic, Rate: rate, Seed: 6}
		for _, policy := range []DegradedPolicy{DegradedSkip, DegradedCountMiss, DegradedAbort} {
			name := fmt.Sprintf("r%g/%s", rate, policy)
			opts := Options{Seed: 4, Workers: 3, Degraded: policy}
			want, wantErr := refRun(t, corpus, faultySuite(t, base, cfg), opts)
			got, err := RunCtx(context.Background(), corpus, faultySuite(t, base, cfg), opts)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !sameCampaign(got, want) {
				t.Fatalf("%s: campaign differs from the reference", name)
			}
			shard, err := RunShardCtx(context.Background(), corpus, faultySuite(t, base, cfg), opts, 0, len(corpus.Cases))
			if err != nil {
				t.Fatal(err)
			}
			grid := roundTrip(t, shard)
			merged, err := MergeShards(corpus, base, grid, policy)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMergeCampaign(corpus, base, grid, policy); !sameCampaign(merged, want) {
				t.Fatalf("%s: merged campaign differs from the reference merge", name)
			}
			for _, res := range got.Results {
				for _, c := range own {
					cs := &corpus.Cases[c]
					keep := len(cs.Truths) > 0 && (policy == DegradedCountMiss || !slices.Contains(res.Exec.FailedCases, c))
					_, tpl := res.ByTemplate[cs.Template]
					_, diff := res.ByDifficulty[cs.Difficulty]
					kind := keep
					if len(cs.Truths) > 0 {
						_, kind = res.ByKind[cs.Truths[0].Kind]
					}
					if tpl != keep || diff != keep || kind != keep {
						t.Fatalf("%s: %s case %d: template/difficulty/kind keys %v/%v/%v, want %v",
							name, res.Tool, c, tpl, diff, kind, keep)
					}
					if keep {
						counted++
					} else if len(cs.Truths) > 0 {
						dropped++
					}
				}
			}
		}
	}
	if counted == 0 || dropped == 0 {
		t.Fatalf("%d counted and %d dropped cases with sinks; the sweep must have both", counted, dropped)
	}
}
