package experiments

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/stats"
)

// The resampling tables E4c and E7 once drew every resample record by
// record, with one Intn index per record, on an independent stream per
// (tool, metric) or (pair, metric) cell. They now draw per-code counts
// (stats.RNG.Resample) on one stream per tool or pair, shared by every
// metric. The distribution of a resample is the same, so the tests below
// hold the published cells to the old sampler within Monte Carlo error,
// and pin the shared streams.

// intnResample counts one resample of codes the old way: len(codes)
// records drawn with Intn.
func intnResample(rng *stats.RNG, codes []uint8, cnt *[16]int) {
	*cnt = [16]int{}
	for range codes {
		cnt[codes[rng.Intn(len(codes))]]++
	}
}

// oldE7Fractions is E7 as the per-cell sampler computed it: one stream
// per (pair, metric) cell, split pair-major from the E7 seed, each
// resample drawn record by record.
func oldE7Fractions(seed uint64, pairs []harness.PairCodes, resamples int) [][]float64 {
	ids := campaignMetricIDs()
	rng := stats.NewRNG(seed + 7)
	fracs := make([][]float64, len(pairs))
	for p, codes := range pairs {
		fracs[p] = make([]float64, len(ids))
		for j, id := range ids {
			cell, m := rng.Split(), metrics.MustByID(id)
			var cnt [16]int
			for c := range codes {
				cnt[codes[c]]++
			}
			point := pairCountsDelta(codes, m, &cnt)
			same := 0
			for range resamples {
				intnResample(cell, codes, &cnt)
				if v := pairCountsDelta(codes, m, &cnt); (point >= 0 && v >= 0) || (point < 0 && v < 0) {
					same++
				}
			}
			fracs[p][j] = float64(same) / float64(resamples)
		}
	}
	return fracs
}

// sortedQuantile is the interpolated q-quantile of sorted xs, as the
// bootstrap's percentile bounds compute it.
func sortedQuantile(xs []float64, q float64) float64 {
	rank := q * float64(len(xs)-1)
	lo := int(rank)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// oldE4Intervals is E4c as the block-parallel sampler computed it: one
// stream per (tool, metric) cell, split tool-major from the E4 seed; each
// block of 64 resamples on its own child of the cell's stream, each
// resample drawn record by record; 95% percentile bounds.
func oldE4Intervals(seed uint64, camp *harness.Campaign, resamples int) [][]stats.Interval {
	rng := stats.NewRNG(seed + 4)
	ivs := make([][]stats.Interval, len(camp.Results))
	for i := range camp.Results {
		codes := camp.Results[i].Codes()
		for _, id := range e4BootstrapMetricIDs {
			cell, fn := rng.Split(), e4Stat(codes, metrics.MustByID(id))
			estimates := make([]float64, resamples)
			var blk *stats.RNG
			var cnt [16]int
			for b := range estimates {
				if b%64 == 0 {
					blk = cell.Split()
				}
				intnResample(blk, codes, &cnt)
				estimates[b] = fn(&cnt)
			}
			slices.Sort(estimates)
			ivs[i] = append(ivs[i], stats.Interval{Lo: sortedQuantile(estimates, 0.025), Hi: sortedQuantile(estimates, 0.975)})
		}
	}
	return ivs
}

// samplerAudit recomputes E7 and E4c with the old sampler for each seed
// and counts the cells outside the agreement bounds: a fraction must
// agree within 4·√(f_old(1−f_old)/B + f_new(1−f_new)/B) + 1/B, an
// interval endpoint within a quarter of the old interval's width (about
// 4.5 Monte Carlo standard errors at B = 300). Every cell outside its
// bound is logged.
func samplerAudit(t *testing.T, cfg Config, seeds []uint64) (cells, outside int) {
	t.Helper()
	ids := campaignMetricIDs()
	B := float64(cfg.BootstrapResamples)
	for _, seed := range seeds {
		cfg.Seed = seed
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := r.CampaignCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		order, pairs, err := e7Pairs(camp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.e7Fractions(pairs)
		if err != nil {
			t.Fatal(err)
		}
		want := oldE7Fractions(seed, pairs, cfg.BootstrapResamples)
		for p := range pairs {
			for j, id := range ids {
				fn, fo := got[p][j], want[p][j]
				cells++
				if bound := 4*math.Sqrt(fo*(1-fo)/B+fn*(1-fn)/B) + 1/B; math.Abs(fn-fo) > bound {
					outside++
					t.Logf("seed %d E7 %s vs %s, %s: fraction %v, old sampler %v (bound %.4f)",
						seed, camp.Results[order[p]].Tool, camp.Results[order[p+1]].Tool, id, fn, fo, bound)
				}
			}
		}
		gotIvs, err := r.e4Intervals(camp)
		if err != nil {
			t.Fatal(err)
		}
		wantIvs := oldE4Intervals(seed, camp, cfg.BootstrapResamples)
		for i := range camp.Results {
			for j, id := range e4BootstrapMetricIDs {
				g, w := gotIvs[i][j], wantIvs[i][j]
				tol := w.Width() / 4
				for _, e := range [][2]float64{{g.Lo, w.Lo}, {g.Hi, w.Hi}} {
					cells++
					if math.Abs(e[0]-e[1]) > tol {
						outside++
						t.Logf("seed %d E4c %s %s: interval [%v, %v], old sampler [%v, %v] (bound %.4f)",
							seed, camp.Results[i].Tool, id, g.Lo, g.Hi, w.Lo, w.Hi, tol)
					}
				}
			}
		}
	}
	return cells, outside
}

// TestSamplerAgreesWithOldSampler is the tier-1 audit: on quick seeds
// 1–5 every E7 fraction and E4c endpoint lies within its bound. The
// 20-seed default-config sweep is TestSamplerAuditDefaultSweep, behind
// the audit build tag.
func TestSamplerAgreesWithOldSampler(t *testing.T) {
	cells, outside := samplerAudit(t, QuickConfig(), []uint64{1, 2, 3, 4, 5})
	if outside > 0 {
		t.Fatalf("%d of %d cells outside their Monte Carlo bound", outside, cells)
	}
}

// TestResamplesSharedAcrossMetrics pins common random numbers. In E7,
// specificity and fpr order every pair identically, so on one shared
// stream they get the same fraction on every pair; on streams of their
// own they would differ by noise wherever the fraction is below 1. In
// E4c, each tool's F1 and MCC intervals are exactly the single-metric
// bootstraps of one stream, the tool's.
func TestResamplesSharedAcrossMetrics(t *testing.T) {
	ids := campaignMetricIDs()
	spec, fpr := slices.Index(ids, metrics.IDSpecificity), slices.Index(ids, metrics.IDFPR)
	unstable := 0
	for _, seed := range []uint64{1, 2, 3} {
		cfg := QuickConfig()
		cfg.Seed = seed
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := r.CampaignCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		_, pairs, err := e7Pairs(camp)
		if err != nil {
			t.Fatal(err)
		}
		fracs, err := r.e7Fractions(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for p, f := range fracs {
			if f[spec] != f[fpr] {
				t.Fatalf("seed %d pair %d: specificity %v, fpr %v; one stream gives them equal fractions", seed, p, f[spec], f[fpr])
			}
			if f[spec] < 1 {
				unstable++
			}
		}

		ivs, err := r.e4Intervals(camp)
		if err != nil {
			t.Fatal(err)
		}
		bootCfg := stats.BootstrapConfig{Resamples: cfg.BootstrapResamples, Confidence: 0.95}
		rng := stats.NewRNG(seed + 4)
		for i := range camp.Results {
			stream := rng.Split()
			codes := camp.Results[i].Codes()
			for j, id := range e4BootstrapMetricIDs {
				alone := *stream // a copy: every metric starts from the tool's stream
				want, err := stats.BootstrapCodes(&alone, codes, bootCfg, e4Stat(codes, metrics.MustByID(id)))
				if err != nil {
					t.Fatal(err)
				}
				if ivs[i][j] != want[0] {
					t.Fatalf("seed %d %s %s: interval %+v, want %+v from the tool's stream", seed, camp.Results[i].Tool, id, ivs[i][j], want[0])
				}
			}
		}
	}
	if unstable == 0 {
		t.Fatal("no pair has a specificity fraction below 1; the equality check is vacuous")
	}
}
