package stats

import (
	"sort"
	"testing"
)

// benchEstimates builds a deterministic unsorted estimate vector of the
// size the default experiments use (BootstrapResamples = 2000).
func benchEstimates(n int) []float64 {
	rng := NewRNG(11)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

// BenchmarkPercentileBounds isolates the interval-extraction step of
// every bootstrap: quickselect replaces the former sort.Float64s, turning
// O(B log B) comparison sorting into O(B) selection with zero
// allocations.
func BenchmarkPercentileBounds(b *testing.B) {
	src := benchEstimates(2000)
	buf := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		lo, hi := percentileBounds(buf, 0.95)
		if lo > hi {
			b.Fatal("inverted bounds")
		}
	}
}

// BenchmarkPercentileBoundsSort is the pre-quickselect reference
// implementation (sort, then interpolate both quantiles), kept as a
// benchmark-only baseline so the win stays measurable in place.
func BenchmarkPercentileBoundsSort(b *testing.B) {
	src := benchEstimates(2000)
	buf := make([]float64, len(src))
	sortedQuantile := func(sorted []float64, q float64) float64 {
		rank := q * float64(len(sorted)-1)
		loIdx := int(rank)
		if loIdx >= len(sorted)-1 {
			return sorted[len(sorted)-1]
		}
		frac := rank - float64(loIdx)
		return sorted[loIdx]*(1-frac) + sorted[loIdx+1]*frac
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		sort.Float64s(buf)
		alpha := (1 - 0.95) / 2
		lo, hi := sortedQuantile(buf, alpha), sortedQuantile(buf, 1-alpha)
		if lo > hi {
			b.Fatal("inverted bounds")
		}
	}
}

// BenchmarkSignStability measures the per-index reference E7 ran on
// before the tally kernel (see BenchmarkTally for the draw loop alone):
// the index buffer doubles as the identity permutation, so the whole call
// allocates once.
func BenchmarkSignStability(b *testing.B) {
	rng := NewRNG(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SignStability(rng, 500, 200, func(idx []int) float64 {
			return float64(idx[0] - idx[len(idx)-1])
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTally measures one resample of a 1500-entry code table, the
// E7/E4 inner loop, against the per-index Intn loop it replaced. Both
// consume the same stream (TestTallyMatchesIntn).
func BenchmarkTally(b *testing.B) {
	const n = 1500
	codes := make([]uint8, n)
	for i := range codes {
		codes[i] = uint8(i % 16)
	}
	b.Run("kernel", func(b *testing.B) {
		rng := NewRNG(13)
		var cnt [16]int
		for i := 0; i < b.N; i++ {
			rng.Tally(codes, &cnt)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/draw")
	})
	b.Run("intn-loop", func(b *testing.B) {
		rng := NewRNG(13)
		var cnt [16]int
		for i := 0; i < b.N; i++ {
			for range n {
				cnt[codes[rng.Intn(n)]&15]++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/draw")
	})
}

// countSink keeps the benchmarked counts live.
var countSink int

// BenchmarkCountBernoulli measures the metric-property sampler's draws
// against the per-call Bernoulli loop they replaced.
func BenchmarkCountBernoulli(b *testing.B) {
	const n = 1300
	b.Run("kernel", func(b *testing.B) {
		rng := NewRNG(14)
		hits := 0
		for i := 0; i < b.N; i++ {
			hits += rng.CountBernoulli(n, 0.35)
		}
		countSink = hits
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/draw")
	})
	b.Run("bernoulli-loop", func(b *testing.B) {
		rng := NewRNG(14)
		hits := 0
		for i := 0; i < b.N; i++ {
			for range n {
				if rng.Bernoulli(0.35) {
					hits++
				}
			}
		}
		countSink = hits
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/draw")
	})
}
