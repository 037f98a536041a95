package harness

import (
	"context"
	"errors"
	"testing"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/workload"
)

func testCorpus(t testing.TB, services int, seed uint64) *workload.Corpus {
	t.Helper()
	c, err := workload.Generate(workload.Config{
		Services:         services,
		TargetPrevalence: 0.4,
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testTools(t testing.TB) []detectors.Tool {
	t.Helper()
	tools, err := detectors.StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	return tools
}

// runSeed executes a campaign through RunCtx with the default execution
// policy.
func runSeed(corpus *workload.Corpus, tools []detectors.Tool, seed uint64, workers int) (*Campaign, error) {
	return RunCtx(context.Background(), corpus, tools, Options{Seed: seed, Workers: workers})
}

func runCampaign(t *testing.T, services int) *Campaign {
	t.Helper()
	camp, err := runSeed(testCorpus(t, services, 1), testTools(t), 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

func TestRunBasicInvariants(t *testing.T) {
	camp := runCampaign(t, 60)
	corpusSinks := camp.Corpus.TotalSinks()
	corpusVuln := camp.Corpus.VulnerableSinks()
	for _, res := range camp.Results {
		if res.Overall.Total() != corpusSinks {
			t.Errorf("%s classified %d sinks, corpus has %d", res.Tool, res.Overall.Total(), corpusSinks)
		}
		if res.Overall.Positives() != corpusVuln {
			t.Errorf("%s sees %d positives, corpus has %d", res.Tool, res.Overall.Positives(), corpusVuln)
		}
		if len(res.Outcomes) != corpusSinks {
			t.Errorf("%s has %d outcomes", res.Tool, len(res.Outcomes))
		}
		// Split matrices must sum to the overall matrix.
		var kindSum, diffSum metrics.Confusion
		for _, m := range res.ByKind {
			kindSum = kindSum.Add(m)
		}
		for _, m := range res.ByDifficulty {
			diffSum = diffSum.Add(m)
		}
		if kindSum != res.Overall || diffSum != res.Overall {
			t.Errorf("%s split matrices do not sum to overall", res.Tool)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	corpus := testCorpus(t, 40, 5)
	c1, err1 := runSeed(corpus, testTools(t), 7, 1)
	c2, err2 := runSeed(corpus, testTools(t), 7, 1)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range c1.Results {
		if c1.Results[i].Overall != c2.Results[i].Overall {
			t.Fatalf("campaign nondeterministic for %s", c1.Results[i].Tool)
		}
	}
}

func TestRunSeedAffectsOnlySimulatedTools(t *testing.T) {
	corpus := testCorpus(t, 40, 5)
	c1, _ := runSeed(corpus, testTools(t), 1, 1)
	c2, _ := runSeed(corpus, testTools(t), 2, 1)
	for i := range c1.Results {
		same := c1.Results[i].Overall == c2.Results[i].Overall
		if c1.Results[i].Class == detectors.ClassSimulated {
			if same {
				t.Errorf("simulated tool %s ignored the seed", c1.Results[i].Tool)
			}
		} else if !same {
			t.Errorf("deterministic tool %s changed with the seed", c1.Results[i].Tool)
		}
	}
}

func TestCampaignShape(t *testing.T) {
	// The paper's qualitative expectation: pentesting precise but
	// incomplete, static analysis the reverse.
	camp := runCampaign(t, 150)
	prec := metrics.MustByID(metrics.IDPrecision)
	rec := metrics.MustByID(metrics.IDRecall)

	pt, ok := camp.ResultFor("pt-deep")
	if !ok {
		t.Fatal("pt-deep missing")
	}
	ptPrec, err := pt.MetricValue(prec)
	if err != nil {
		t.Fatal(err)
	}
	ptRec, err := pt.MetricValue(rec)
	if err != nil {
		t.Fatal(err)
	}
	if ptPrec < 0.95 {
		t.Errorf("pt-deep precision = %g, expected >= 0.95 (differential confirmation)", ptPrec)
	}
	if ptRec > 0.95 {
		t.Errorf("pt-deep recall = %g, expected misses from silent sinks", ptRec)
	}

	agg, ok := camp.ResultFor("ts-aggressive")
	if !ok {
		t.Fatal("ts-aggressive missing")
	}
	aggRec, err := agg.MetricValue(rec)
	if err != nil {
		t.Fatal(err)
	}
	aggPrec, err := agg.MetricValue(prec)
	if err != nil {
		t.Fatal(err)
	}
	if aggRec < 0.95 {
		t.Errorf("ts-aggressive recall = %g, expected ~1", aggRec)
	}
	if aggPrec >= ptPrec {
		t.Errorf("ts-aggressive precision %g should be below pt-deep %g", aggPrec, ptPrec)
	}
}

// TestRunValidation pins the input checks on the serial path and on
// the worker pool.
func TestRunValidation(t *testing.T) {
	corpus := testCorpus(t, 10, 1)
	tools := testTools(t)
	dup := []detectors.Tool{detectors.NewSignatureSAST("x"), detectors.NewSignatureSAST("x")}
	for _, workers := range []int{1, 4} {
		if _, err := runSeed(nil, tools, 1, workers); err == nil {
			t.Errorf("workers=%d: nil corpus accepted", workers)
		}
		if _, err := runSeed(&workload.Corpus{}, tools, 1, workers); err == nil {
			t.Errorf("workers=%d: empty corpus accepted", workers)
		}
		if _, err := runSeed(corpus, nil, 1, workers); err == nil {
			t.Errorf("workers=%d: no tools accepted", workers)
		}
		if _, err := runSeed(corpus, []detectors.Tool{nil}, 1, workers); err == nil {
			t.Errorf("workers=%d: nil tool accepted", workers)
		}
		if _, err := runSeed(corpus, dup, 1, workers); err == nil {
			t.Errorf("workers=%d: duplicate tool names accepted", workers)
		}
	}
}

func TestResultForAndToolNames(t *testing.T) {
	camp := runCampaign(t, 20)
	names := camp.ToolNames()
	if len(names) != 9 {
		t.Fatalf("names = %v", names)
	}
	if _, ok := camp.ResultFor("no-such-tool"); ok {
		t.Fatal("bogus tool resolved")
	}
	r, ok := camp.ResultFor(names[0])
	if !ok || r.Tool != names[0] {
		t.Fatal("ResultFor failed")
	}
}

func TestMetricScoresOrientation(t *testing.T) {
	camp := runCampaign(t, 60)
	fpr := metrics.MustByID(metrics.IDFPR)
	rec := metrics.MustByID(metrics.IDRecall)
	fprScores, err := camp.MetricScores(fpr, 1)
	if err != nil {
		t.Fatal(err)
	}
	recScores, err := camp.MetricScores(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// FPR goodness is negated: all scores must be <= 0.
	for i, s := range fprScores {
		if s > 0 {
			t.Errorf("FPR goodness for %s = %g > 0", camp.Results[i].Tool, s)
		}
	}
	for i, s := range recScores {
		if s < 0 || s > 1 {
			t.Errorf("recall goodness for %s = %g out of [0,1]", camp.Results[i].Tool, s)
		}
	}
}

func TestSinkOutcomeConfusion(t *testing.T) {
	cases := []struct {
		o    SinkOutcome
		want metrics.Confusion
	}{
		{SinkOutcome{Vulnerable: true, Flagged: true}, metrics.Confusion{TP: 1}},
		{SinkOutcome{Vulnerable: true}, metrics.Confusion{FN: 1}},
		{SinkOutcome{Flagged: true}, metrics.Confusion{FP: 1}},
		{SinkOutcome{}, metrics.Confusion{TN: 1}},
	}
	for _, c := range cases {
		if got := c.o.Confusion(); got != c.want {
			t.Errorf("Confusion(%+v) = %+v", c.o, got)
		}
	}
}

// Confusion and Confusions are the per-index folds the tally kernel
// replaced: they pool the outcomes at the given indices (repeats count
// repeatedly) by counting codes index by index.
func (c OutcomeCodes) Confusion(idx []int) metrics.Confusion {
	var cnt [16]int
	for _, i := range idx {
		cnt[c[i]]++
	}
	return c.Fold(&cnt)
}

func (p PairCodes) Confusions(idx []int) (a, b metrics.Confusion) {
	var cnt [16]int
	for _, i := range idx {
		cnt[p[i]]++
	}
	return p.Fold(&cnt)
}

// recallDelta is the recall delta, tool a minus tool b, between the two
// matrices.
func recallDelta(ca, cb metrics.Confusion) float64 {
	rec := metrics.MustByID(metrics.IDRecall)
	va, err := rec.Value(ca)
	if err != nil {
		return 0
	}
	vb, err := rec.Value(cb)
	if err != nil {
		return 0
	}
	return va - vb
}

func TestPairCodesFullIndexDelta(t *testing.T) {
	camp := runCampaign(t, 60)
	a, _ := camp.ResultFor("ts-aggressive")
	b, _ := camp.ResultFor("pt-deep")
	codes, err := NewPairCodes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(a.Outcomes))
	for i := range idx {
		idx[i] = i
	}
	// Full-index delta must equal the difference of the overall values.
	delta := recallDelta(codes.Confusions(idx))
	rec := metrics.MustByID(metrics.IDRecall)
	va, _ := a.MetricValue(rec)
	vb, _ := b.MetricValue(rec)
	if diff := delta - (va - vb); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("delta = %g, want %g", delta, va-vb)
	}
	// The full-index matrices are the overall matrices.
	if ca, cb := codes.Confusions(idx); ca != a.Overall || cb != b.Overall {
		t.Fatalf("full-index matrices %+v / %+v, want %+v / %+v", ca, cb, a.Overall, b.Overall)
	}
	if got := a.Codes().Confusion(idx); got != a.Overall {
		t.Fatalf("single-tool full-index matrix %+v, want %+v", got, a.Overall)
	}
	short := &ToolResult{Outcomes: a.Outcomes[1:]}
	if _, err := NewPairCodes(a, short); err == nil {
		t.Fatal("misaligned outcome slices accepted")
	}
}

// TestPairCodesMcNemar checks the discordant counts on a hand-built
// pair: tool a is right on sinks 0, 1, 2 and 4, tool b on 0, 4 and 5.
func TestPairCodesMcNemar(t *testing.T) {
	// Each outcome's correctness is Vulnerable == Flagged.
	right, wrong := SinkOutcome{Vulnerable: true, Flagged: true}, SinkOutcome{Flagged: true}
	a := &ToolResult{Outcomes: []SinkOutcome{right, {}, right, wrong, {}, {Vulnerable: true}}}
	b := &ToolResult{Outcomes: []SinkOutcome{{}, wrong, {Vulnerable: true}, wrong, right, {}}}
	codes, err := NewPairCodes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := codes.McNemar()
	if err != nil {
		t.Fatal(err)
	}
	if res.B != 2 || res.C != 1 {
		t.Fatalf("discordant counts = (%d, %d), want (2, 1)", res.B, res.C)
	}
	if _, err := PairCodes(nil).McNemar(); !errors.Is(err, stats.ErrEmpty) {
		t.Fatal("empty table accepted")
	}
}

// TestPairCodesMcNemarMatchesOutcomes checks McNemar's discordant counts
// for every adjacent pair of a real campaign against the per-sink
// correctness of the two tools' outcomes.
func TestPairCodesMcNemarMatchesOutcomes(t *testing.T) {
	camp := runCampaign(t, 40)
	for i := 0; i+1 < len(camp.Results); i++ {
		a, b := &camp.Results[i], &camp.Results[i+1]
		t.Run(a.Tool+"-vs-"+b.Tool, func(t *testing.T) {
			var onlyA, onlyB int
			for k, oa := range a.Outcomes {
				aOK, bOK := oa.Vulnerable == oa.Flagged, b.Outcomes[k].Vulnerable == b.Outcomes[k].Flagged
				if aOK && !bOK {
					onlyA++
				}
				if bOK && !aOK {
					onlyB++
				}
			}
			codes, err := NewPairCodes(a, b)
			if err != nil {
				t.Fatal(err)
			}
			res, err := codes.McNemar()
			if err != nil {
				t.Fatal(err)
			}
			if res.B != onlyA || res.C != onlyB {
				t.Fatalf("discordant counts = (%d, %d), outcomes give (%d, %d)", res.B, res.C, onlyA, onlyB)
			}
		})
	}
}

// TestOverallIsMicroAverage checks that the overall matrix E13 reports as
// the micro average pools every sink outcome, and so equals the sum of the
// per-template matrices as well.
func TestOverallIsMicroAverage(t *testing.T) {
	camp := runCampaign(t, 40)
	for _, res := range camp.Results {
		var pooled, templateSum metrics.Confusion
		for _, o := range res.Outcomes {
			pooled = pooled.Add(o.Confusion())
		}
		for _, m := range res.ByTemplate {
			templateSum = templateSum.Add(m)
		}
		if pooled != res.Overall || templateSum != res.Overall {
			t.Errorf("%s: overall %+v, pooled outcomes %+v, template sum %+v", res.Tool, res.Overall, pooled, templateSum)
		}
	}
}

func TestPairCodesWithSignStability(t *testing.T) {
	camp := runCampaign(t, 80)
	a, _ := camp.ResultFor("ts-aggressive")
	b, _ := camp.ResultFor("grep-sast")
	codes, err := NewPairCodes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	fracs, err := stats.SignStabilityCodes(stats.NewRNG(3), codes, 200, 1, func(cnt *[16]int, out []float64) {
		out[0] = recallDelta(codes.Fold(cnt))
	})
	if err != nil {
		t.Fatal(err)
	}
	if frac := fracs[0]; frac < 0.5 || frac > 1 {
		t.Fatalf("sign stability = %g out of range", frac)
	}
}

func TestScoredInstances(t *testing.T) {
	camp := runCampaign(t, 40)
	res, _ := camp.ResultFor("ts-precise")
	xs := res.ScoredInstances()
	if len(xs) != len(res.Outcomes) {
		t.Fatal("length mismatch")
	}
	auc, err := metrics.AUC(xs)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.5 {
		t.Fatalf("ts-precise AUC = %g, should beat chance", auc)
	}
}
