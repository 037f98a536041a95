package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/stats"
)

// refConfusion is the per-outcome summation the code-table kernel
// replaced: the reference the kernel must reproduce exactly.
func refConfusion(outs []harness.SinkOutcome, idx []int) metrics.Confusion {
	var c metrics.Confusion
	for _, i := range idx {
		c = c.Add(outs[i].Confusion())
	}
	return c
}

// refDelta is E7's statistic computed from the reference summation.
func refDelta(a, b *harness.ToolResult, m metrics.Metric, idx []int) float64 {
	va, err := m.ValueOr(refConfusion(a.Outcomes, idx), worstFallback(m))
	if err != nil {
		return 0
	}
	vb, err := m.ValueOr(refConfusion(b.Outcomes, idx), worstFallback(m))
	if err != nil {
		return 0
	}
	return m.Goodness(va) - m.Goodness(vb)
}

// countAt counts the codes at the given indices one by one: the
// per-index path the tally kernel replaced.
func countAt(codes []uint8, idx []int) *[16]int {
	var cnt [16]int
	for _, i := range idx {
		cnt[codes[i]]++
	}
	return &cnt
}

// pairCountsDelta is E7's statistic of metric m over the per-code
// counts cnt of a resample.
func pairCountsDelta(codes harness.PairCodes, m metrics.Metric, cnt *[16]int) float64 {
	ca, cb := codes.Fold(cnt)
	return confusionDelta(&m, worstFallback(m), ca, cb)
}

// pairDelta is E7's statistic over the sinks at idx.
func pairDelta(codes harness.PairCodes, m metrics.Metric, idx []int) float64 {
	return pairCountsDelta(codes, m, countAt(codes, idx))
}

// randomResult draws n outcomes with the given label and flag rates.
func randomResult(rng *stats.RNG, n int, pVuln, pFlag float64) *harness.ToolResult {
	res := &harness.ToolResult{Outcomes: make([]harness.SinkOutcome, n)}
	for i := range res.Outcomes {
		flagged := rng.Bernoulli(pFlag)
		conf := 0.0
		if flagged {
			conf = rng.Float64()
		}
		res.Outcomes[i] = harness.SinkOutcome{SinkID: i, Vulnerable: rng.Bernoulli(pVuln), Flagged: flagged, Confidence: conf}
	}
	return res
}

// TestResampleKernelMatchesOutcomeSummation is the kernel's equivalence
// property: on random outcome slices and random index vectors, the code
// tables yield the same confusion matrices as summing per-outcome cells,
// so E4's values and E7's deltas are bit-identical for every campaign
// metric. The shapes include n = 1 and tools whose metrics are undefined
// (no vulnerable sink, nothing flagged), which exercise the fallbacks.
func TestResampleKernelMatchesOutcomeSummation(t *testing.T) {
	rng := stats.NewRNG(2015)
	ids := campaignMetricIDs()
	shapes := []struct {
		name                           string
		pVulnA, pFlagA, pVulnB, pFlagB float64
	}{
		{"mixed", 0.35, 0.4, 0.35, 0.6},
		{"all-negative", 0, 0.3, 0, 0.5},
		{"all-unflagged", 0.4, 0, 0.4, 0},
		{"one-side-unflagged", 0.5, 0.5, 0.5, 0},
		{"all-positive-all-flagged", 1, 1, 1, 0.5},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(60)
			if trial == 0 {
				n = 1
			}
			// Both tools share the ground truth of one campaign.
			a := randomResult(rng, n, sh.pVulnA, sh.pFlagA)
			b := randomResult(rng, n, sh.pVulnB, sh.pFlagB)
			for i := range b.Outcomes {
				b.Outcomes[i].Vulnerable = a.Outcomes[i].Vulnerable
			}
			idx := make([]int, rng.Intn(2*n)+1)
			for i := range idx {
				idx[i] = rng.Intn(n)
			}
			name := fmt.Sprintf("%s/n=%d/trial=%d", sh.name, n, trial)

			pair, err := harness.NewPairCodes(a, b)
			if err != nil {
				t.Fatal(err)
			}
			wantA, wantB := refConfusion(a.Outcomes, idx), refConfusion(b.Outcomes, idx)
			if gotA, gotB := pair.Fold(countAt(pair, idx)); gotA != wantA || gotB != wantB {
				t.Fatalf("%s: pair kernel %+v / %+v, want %+v / %+v", name, gotA, gotB, wantA, wantB)
			}
			codes := a.Codes()
			if got := codes.Fold(countAt(codes, idx)); got != wantA {
				t.Fatalf("%s: single-tool kernel %+v, want %+v", name, got, wantA)
			}
			for _, id := range ids {
				m := metrics.MustByID(id)
				got, want := pairDelta(pair, m, idx), refDelta(a, b, m, idx)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: %s delta %v, want %v", name, id, got, want)
				}
			}
		}
	}
}

// TestE18ReplayMatchesRealTools carries the guarantee that re-running the
// suite used to give: for every fault configuration E18 uses, a campaign
// of faulty-wrapped replays of the baseline equals, ledger included, the
// campaign of faulty-wrapped real tools.
func TestE18ReplayMatchesRealTools(t *testing.T) {
	ctx := context.Background()
	r := quickRunner(t)
	baseline, err := r.CampaignCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	replays, err := harness.ReplayTools(baseline)
	if err != nil {
		t.Fatal(err)
	}
	real, err := detectors.StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		mode   faulty.Mode
		policy harness.DegradedPolicy
		retry  harness.RetryPolicy
	}{
		{faulty.ModePanic, harness.DegradedSkip, harness.RetryPolicy{}},
		{faulty.ModePanic, harness.DegradedCountMiss, harness.RetryPolicy{}},
		{faulty.ModeByzantine, harness.DegradedSkip, harness.RetryPolicy{}},
		{faulty.ModeTransient, harness.DegradedSkip, harness.RetryPolicy{MaxRetries: 1}},
	}
	for _, c := range configs {
		for _, rate := range []float64{0.10, 0.30} {
			want, err := r.e18Campaign(ctx, baseline.Corpus, real, c.mode, rate, c.policy, c.retry)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.e18Campaign(ctx, baseline.Corpus, replays, c.mode, rate, c.policy, c.retry)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%s/%s at rate %g: replayed campaign differs from the real-tool campaign", c.mode, c.policy, rate)
			}
			failed := 0
			for _, res := range got.Results {
				failed += res.Exec.Failed + res.Exec.Retries
			}
			if failed == 0 && c.mode != faulty.ModeByzantine {
				t.Fatalf("%s at rate %g injected no fault; the comparison is vacuous", c.mode, rate)
			}
		}
	}
	// The fault-free replay reproduces the baseline itself.
	again, err := harness.RunCtx(ctx, baseline.Corpus, replays, harness.Options{Seed: r.cfg.Seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Results, baseline.Results) {
		t.Fatal("fault-free replay differs from the baseline campaign")
	}
}

// TestE14ReplayMatchesRealTools carries the guarantee that re-running
// E14's members used to give: at several seeds, the 6-tool campaign over
// replays of the shared campaign equals the one over the real members.
func TestE14ReplayMatchesRealTools(t *testing.T) {
	ctx := context.Background()
	suite, err := detectors.StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	real := make([]detectors.Tool, len(e14Members))
	for i, name := range e14Members {
		idx := slices.IndexFunc(suite, func(tool detectors.Tool) bool { return tool.Name() == name })
		if idx < 0 {
			t.Fatalf("standard suite has no tool %q", name)
		}
		real[i] = suite[idx]
	}
	for _, seed := range []uint64{1, 7, 42} {
		cfg := QuickConfig()
		cfg.Seed = seed
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, err := r.CampaignCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.e14Campaign(ctx, base.Corpus, real)
		if err != nil {
			t.Fatal(err)
		}
		replays, err := replayMembers(base, e14Members...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.e14Campaign(ctx, base.Corpus, replays)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("seed %d: replayed E14 campaign differs from the real-tool campaign", seed)
		}
	}
}
