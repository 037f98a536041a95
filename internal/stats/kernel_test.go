package stats

import (
	"math"
	"math/bits"
	"testing"
)

// CountBernoulli must consume exactly the stream of its per-call loop:
// the tests below run the kernel and its reference loop on two
// generators from one seed and compare the results and the next raw
// draw, which pins the final generator state.

func TestCountBernoulliMatchesBernoulli(t *testing.T) {
	const ulp = 0x1p-53
	ps := []float64{
		-1, 0, 0x1p-60, ulp,
		math.Nextafter(3*ulp, 0), 3 * ulp, math.Nextafter(3*ulp, 1), // k·2⁻⁵³ ± 1 ulp
		math.Nextafter(0.35, 0), 0.35, math.Nextafter(0.35, 1),
		1 - ulp, 1, 2, math.NaN(),
	}
	for _, p := range ps {
		for _, n := range []int{0, 1, 1300, 2000} {
			got, want := NewRNG(uint64(n)+7), NewRNG(uint64(n)+7)
			count := got.CountBernoulli(n, p)
			ref := 0
			for range n {
				if want.Bernoulli(p) {
					ref++
				}
			}
			if count != ref {
				t.Fatalf("CountBernoulli(%d, %v) = %d, want %d", n, p, count, ref)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("CountBernoulli(%d, %v) left the stream at %#x, want %#x", n, p, g, w)
			}
		}
	}
}

// TestCountBernoulliThresholdEdges compares at the exact decision
// boundary: a draw whose top 53 bits equal k succeeds for p just above
// k·2⁻⁵³ and fails for p = k·2⁻⁵³, in both paths.
func TestCountBernoulliThresholdEdges(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		k := NewRNG(seed).Uint64() >> 11
		at := float64(k) / (1 << 53)
		for _, p := range []float64{math.Nextafter(at, 0), at, math.Nextafter(at, 1)} {
			got, want := NewRNG(seed), NewRNG(seed)
			if c, b := got.CountBernoulli(1, p), want.Bernoulli(p); (c == 1) != b {
				t.Fatalf("seed %d p %v: CountBernoulli = %d, Bernoulli = %v", seed, p, c, b)
			}
		}
	}
}

// refUint64n is Intn's textbook accept loop: draw, multiply, accept when
// lo >= un or lo >= 2⁶⁴ mod un.
func refUint64n(r *RNG, un uint64) (v uint64, rejected int) {
	for {
		hi, lo := bits.Mul64(r.Uint64(), un)
		if lo >= un || lo >= (-un)%un {
			return hi, rejected
		}
		rejected++
	}
}

// TestBoundedDrawRejection runs Intn's bounded draw where about half of
// all raw draws are rejected (un = 2⁶³+1), so its rejection branch is
// exercised against the reference loop.
func TestBoundedDrawRejection(t *testing.T) {
	for _, un := range []uint64{1<<63 + 1, 1<<62 + 1, 3, 1} {
		got, want := NewRNG(9), NewRNG(9)
		rejected := 0
		for i := range 200 {
			w, rej := refUint64n(want, un)
			rejected += rej
			if g := got.uint64n(un); g != w {
				t.Fatalf("un=%d draw %d: %d, want %d", un, i, g, w)
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("un=%d: stream diverged", un)
		}
		if un == 1<<63+1 && rejected < 50 {
			t.Fatalf("un=%d: only %d rejections in 200 draws; the branch is not exercised", un, rejected)
		}
	}
}

// codeTable draws n codes in [0, 16) with a skewed distribution, so
// resampled statistics actually vary.
func codeTable(seed uint64, n int) []uint8 {
	rng := NewRNG(seed)
	codes := make([]uint8, n)
	for i := range codes {
		codes[i] = uint8(rng.Intn(1 + rng.Intn(16)))
	}
	return codes
}

// codeStat is a nonlinear statistic of per-code counts, and idxStat the
// same statistic computed from materialised indices, as the per-index
// references see them.
func codeStat(cnt *[16]int) float64 {
	return float64(cnt[0]-cnt[1]+cnt[5]) / float64(1+cnt[2]+cnt[3])
}

func idxStat(codes []uint8) func([]int) float64 {
	return func(idx []int) float64 {
		var cnt [16]int
		for _, i := range idx {
			cnt[codes[i]]++
		}
		return codeStat(&cnt)
	}
}

// agree reports whether two Monte Carlo fractions over resamples draws
// each agree within four standard errors of their difference, plus one
// draw of discreteness slack.
func agree(a, b float64, resamples int) bool {
	B := float64(resamples)
	return math.Abs(a-b) <= 4*math.Sqrt(a*(1-a)/B+b*(1-b)/B)+1/B
}

// TestBootstrapCodesMatchesIndexed holds the count kernel to the
// per-index reference in distribution: on the same table both draw
// resamples of the same multinomial, so each interval endpoint agrees
// within a quarter of the reference interval's width (about 6 Monte
// Carlo standard errors at B = 2000). A one-record table has one
// possible resample, so there the intervals are equal.
func TestBootstrapCodesMatchesIndexed(t *testing.T) {
	cfg := BootstrapConfig{Resamples: 2000, Confidence: 0.9}
	for _, n := range []int{1, 173, 600} {
		codes := codeTable(uint64(n), n)
		for _, seed := range []uint64{1, 7, 42} {
			want, err := BootstrapIndexed(NewRNG(seed), n, cfg, idxStat(codes))
			if err != nil {
				t.Fatal(err)
			}
			got, err := BootstrapCodes(NewRNG(seed+1000), codes, cfg, codeStat)
			if err != nil {
				t.Fatal(err)
			}
			tol := want.Width() / 4
			if got[0].Point != want.Point || math.Abs(got[0].Lo-want.Lo) > tol || math.Abs(got[0].Hi-want.Hi) > tol {
				t.Fatalf("n=%d seed %d: interval %+v, want %+v within %g", n, seed, got[0], want, tol)
			}
		}
	}
}

// TestSignStabilityCodesMatchesIndexed holds the count kernel's
// fractions to the per-index reference's within Monte Carlo error.
func TestSignStabilityCodesMatchesIndexed(t *testing.T) {
	const resamples = 2000
	for _, n := range []int{1, 7, 173, 600} {
		codes := codeTable(uint64(n)+100, n)
		for _, seed := range []uint64{1, 7, 42} {
			got, err := SignStabilityCodes(NewRNG(seed), codes, resamples, codeStat, shiftedCodeStat)
			if err != nil {
				t.Fatal(err)
			}
			for j, idx := range []func([]int) float64{idxStat(codes), shiftedIdxStat(codes)} {
				want, err := SignStability(NewRNG(seed+1000), n, resamples, idx)
				if err != nil {
					t.Fatal(err)
				}
				if !agree(got[j], want, resamples) {
					t.Fatalf("n=%d seed %d stat %d: stability %v, want %v", n, seed, j, got[j], want)
				}
			}
		}
	}
}

// shiftedCodeStat is codeStat moved off centre, so its sign flips on a
// different share of resamples; shiftedIdxStat is its per-index form.
func shiftedCodeStat(cnt *[16]int) float64 { return codeStat(cnt) - 0.2 }

func shiftedIdxStat(codes []uint8) func([]int) float64 {
	stat := idxStat(codes)
	return func(idx []int) float64 { return stat(idx) - 0.2 }
}

// TestCodeKernelsShareOneStream pins common random numbers: scoring
// several statistics in one call gives each the result it gets alone on
// the same stream, and a statistic and its negation (never zero here)
// flip sign on exactly the same resamples.
func TestCodeKernelsShareOneStream(t *testing.T) {
	codes := codeTable(3, 257)
	// pos is codeStat centred just above its point estimate, so about
	// half of all resamples flip its sign.
	centre := codeStat(countCodes(codes))
	pos := func(cnt *[16]int) float64 { return codeStat(cnt) - centre + 1e-9 }
	neg := func(cnt *[16]int) float64 { return -pos(cnt) }
	cfg := BootstrapConfig{Resamples: 300, Confidence: 0.9}
	both, err := BootstrapCodes(NewRNG(11), codes, cfg, codeStat, shiftedCodeStat)
	if err != nil {
		t.Fatal(err)
	}
	for j, fn := range []func(*[16]int) float64{codeStat, shiftedCodeStat} {
		alone, err := BootstrapCodes(NewRNG(11), codes, cfg, fn)
		if err != nil {
			t.Fatal(err)
		}
		if both[j] != alone[0] {
			t.Fatalf("statistic %d: interval %+v in a shared call, %+v alone", j, both[j], alone[0])
		}
	}
	fracs, err := SignStabilityCodes(NewRNG(11), codes, 300, pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	if fracs[0] != fracs[1] || fracs[0] > 0.9 {
		t.Fatalf("a statistic and its negation: stabilities %v; want equal and far below 1", fracs)
	}
}

func TestCodeKernelErrors(t *testing.T) {
	cfg := BootstrapConfig{Resamples: 10, Confidence: 0.9}
	codes := []uint8{0, 1, 2}
	if _, err := BootstrapCodes(NewRNG(1), nil, cfg, codeStat); err != ErrEmpty {
		t.Fatal("empty table should fail")
	}
	if _, err := BootstrapCodes(nil, codes, cfg, codeStat); err == nil {
		t.Fatal("nil RNG should fail")
	}
	if _, err := BootstrapCodes(NewRNG(1), codes, BootstrapConfig{Resamples: 10, Confidence: 2}, codeStat); err == nil {
		t.Fatal("invalid config should fail")
	}
	if _, err := SignStabilityCodes(NewRNG(1), nil, 10, codeStat); err != ErrEmpty {
		t.Fatal("empty table should fail")
	}
	if _, err := SignStabilityCodes(NewRNG(1), codes, 0, codeStat); err == nil {
		t.Fatal("resamples=0 should fail")
	}
	if _, err := SignStabilityCodes(nil, codes, 10, codeStat); err == nil {
		t.Fatal("nil RNG should fail")
	}
}
