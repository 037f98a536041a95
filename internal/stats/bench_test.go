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
// before the count kernel (see BenchmarkResample for one resample alone):
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

// BenchmarkResample measures one resample of a 1500-entry code table
// over all 16 codes, the E7/E4 inner loop, one Resample call at a time
// and through one resampler of the table (as the bootstrap kernels
// draw), against the per-index Intn loop it replaced. Both draw the same multinomial
// (TestResampleMatchesMultinomial); the kernel draws at most 15
// binomials instead of 1500 indices.
func BenchmarkResample(b *testing.B) {
	const n = 1500
	codes := make([]uint8, n)
	for i := range codes {
		codes[i] = uint8(i % 16)
	}
	b.Run("kernel", func(b *testing.B) {
		rng := NewRNG(13)
		base := countCodes(codes)
		var cnt [16]int
		for i := 0; i < b.N; i++ {
			rng.Resample(base, &cnt)
		}
		countSink = cnt[0]
	})
	b.Run("resampler", func(b *testing.B) {
		rng := NewRNG(13)
		rs := newResampler(countCodes(codes))
		var cnt [16]int
		for i := 0; i < b.N; i++ {
			rs.draw(rng, &cnt)
		}
		countSink = cnt[0]
	})
	b.Run("intn-loop", func(b *testing.B) {
		rng := NewRNG(13)
		var cnt [16]int
		for i := 0; i < b.N; i++ {
			cnt = [16]int{}
			for range n {
				cnt[codes[rng.Intn(n)]&15]++
			}
		}
		countSink = cnt[0]
	})
}

// BenchmarkSignStabilityCodes measures E7's kernel at the default
// config's shape: 2000 resamples of a 561-record joint code table of a
// tool pair, 12 statistics per resample.
func BenchmarkSignStabilityCodes(b *testing.B) {
	base := [16]int{0: 186, 2: 11, 5: 3, 10: 361}
	codes := make([]uint8, 0, 561)
	for c, k := range base {
		for range k {
			codes = append(codes, uint8(c))
		}
	}
	stat := func(cnt *[16]int, out []float64) {
		for j := range out {
			out[j] = float64(cnt[j%16] - cnt[10])
		}
	}
	rng := NewRNG(14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SignStabilityCodes(rng, codes, 2000, 12, stat); err != nil {
			b.Fatal(err)
		}
	}
}

// countSink keeps the benchmarked counts live.
var countSink int
