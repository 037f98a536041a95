package stats

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"github.com/dsn2015/vdbench/internal/workpool"
)

// The batch kernels must consume exactly the stream of their per-call
// loops: each test below runs the kernel and its reference loop on two
// generators from one seed and compares the results and the next raw
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

func TestTallyMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 561, 1500} {
		codes := make([]uint8, n)
		gen := NewRNG(uint64(n))
		for i := range codes {
			codes[i] = uint8(gen.Intn(16))
		}
		got, want := NewRNG(uint64(n)+1), NewRNG(uint64(n)+1)
		var cnt, ref [16]int
		for range 3 { // repeated tallies accumulate
			got.Tally(codes, &cnt)
			for range n {
				ref[codes[want.Intn(n)]]++
			}
		}
		if cnt != ref {
			t.Fatalf("n=%d: Tally counts %v, want %v", n, cnt, ref)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("n=%d: Tally left the stream at %#x, want %#x", n, g, w)
		}
	}
	// An empty table draws nothing.
	r := NewRNG(5)
	var cnt [16]int
	r.Tally(nil, &cnt)
	if r.Uint64() != NewRNG(5).Uint64() || cnt != ([16]int{}) {
		t.Fatal("empty Tally drew or counted")
	}
}

// refUint64n is Intn's accept loop before the rejection branch was
// factored out: draw, multiply, accept when lo >= un or lo >= 2⁶⁴ mod un.
func refUint64n(r *RNG, un uint64) (v uint64, rejected int) {
	for {
		hi, lo := bits.Mul64(r.Uint64(), un)
		if lo >= un || lo >= (-un)%un {
			return hi, rejected
		}
		rejected++
	}
}

// TestBoundedDrawRejection runs the shared bounded draw where about half
// of all raw draws are rejected (un = 2⁶³+1), so the rejection branch
// that Intn and Tally share is exercised against the reference loop.
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

func TestBootstrapCodesMatchesIndexed(t *testing.T) {
	for _, n := range []int{1, 7, 173, 600} {
		codes := codeTable(uint64(n), n)
		for _, resamples := range []int{1, 70, 321} {
			for _, seed := range []uint64{1, 7, 42} {
				ref := BootstrapConfig{Resamples: resamples, Confidence: 0.9, Workers: 1}
				want, err := BootstrapIndexed(NewRNG(seed), n, ref, idxStat(codes))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{0, 1, 2, 4, 13} {
					cfg := ref
					cfg.Workers = workers
					got, err := BootstrapCodes(NewRNG(seed), codes, cfg, codeStat)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("n=%d B=%d seed %d workers %d: interval %+v, want %+v", n, resamples, seed, workers, got, want)
					}
				}
			}
		}
	}
}

func TestSignStabilityCodesMatchesIndexed(t *testing.T) {
	for _, n := range []int{1, 7, 173, 600} {
		codes := codeTable(uint64(n)+100, n)
		for _, seed := range []uint64{1, 7, 42} {
			got, want := NewRNG(seed), NewRNG(seed)
			frac, err := SignStabilityCodes(got, codes, 200, codeStat)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := SignStability(want, n, 200, idxStat(codes))
			if err != nil {
				t.Fatal(err)
			}
			if frac != ref {
				t.Fatalf("n=%d seed %d: stability %v, want %v", n, seed, frac, ref)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("n=%d seed %d: stream diverged", n, seed)
			}
		}
	}
}

// TestCodeKernelsAcrossWorkerPools runs SignStabilityCodes the way E7
// does — one pre-split stream per cell, cells fanned out over a pool —
// and requires every pool size to reproduce the serial reference.
func TestCodeKernelsAcrossWorkerPools(t *testing.T) {
	codes := codeTable(3, 257)
	const cells = 17
	want := make([]float64, cells)
	root := NewRNG(11)
	for c := range want {
		var err error
		if want[c], err = SignStability(root.Split(), len(codes), 50+c, idxStat(codes)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{0, 1, 2, 4, 13} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			root := NewRNG(11)
			rngs := make([]*RNG, cells)
			for c := range rngs {
				rngs[c] = root.Split()
			}
			got := make([]float64, cells)
			err := workpool.New(workers).ForEach(cells, func(_, c int) error {
				var err error
				got[c], err = SignStabilityCodes(rngs[c], codes, 50+c, codeStat)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for c := range got {
				if got[c] != want[c] {
					t.Fatalf("cell %d: stability %v, want %v", c, got[c], want[c])
				}
			}
		})
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
