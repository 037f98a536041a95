package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d vs %d", i, got, want)
		}
	}
}

func TestNewRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Drain the child; then confirm the parent continues identically to a
	// fresh parent advanced by the same number of draws (1 for the split).
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	ref := NewRNG(7)
	ref.Uint64() // the draw consumed by Split
	for i := 0; i < 100; i++ {
		if got, want := parent.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("parent stream perturbed by child use at step %d", i)
		}
	}
}

// TestSplitSeedIsSplit: NewRNG of SplitSeed is the generator Split
// returns, and both advance the parent alike.
func TestSplitSeedIsSplit(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for range 3 {
		fromSeed, split := NewRNG(a.SplitSeed()), b.Split()
		for i := 0; i < 10; i++ {
			if got, want := fromSeed.Uint64(), split.Uint64(); got != want {
				t.Fatalf("step %d: seeded child %d, split child %d", i, got, want)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitSeed and Split advance the parent differently")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", i, c, want)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(9)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%g) empirical rate %g", p, rate)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(10)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %g, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential draw is negative: %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %g, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(12)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// Property: Perm always yields a valid permutation for any seed and small n.
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN % 64)
		p := NewRNG(seed).Perm(n)
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceWeighted(t *testing.T) {
	r := NewRNG(13)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		idx := r.Choice(weights)
		if idx < 0 || idx >= 3 {
			t.Fatalf("Choice returned %d", idx)
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.25 {
		t.Fatalf("weight ratio = %g, want ~3", ratio)
	}
}

func TestChoiceDegenerate(t *testing.T) {
	r := NewRNG(14)
	if got := r.Choice(nil); got != -1 {
		t.Fatalf("Choice(nil) = %d, want -1", got)
	}
	if got := r.Choice([]float64{0, 0}); got != -1 {
		t.Fatalf("Choice(zeros) = %d, want -1", got)
	}
	if got := r.Choice([]float64{-1, -2}); got != -1 {
		t.Fatalf("Choice(negatives) = %d, want -1", got)
	}
}

func TestShuffleSwapCount(t *testing.T) {
	r := NewRNG(15)
	vals := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), vals...)
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	// Must remain a permutation of the original multiset.
	counts := map[string]int{}
	for _, v := range vals {
		counts[v]++
	}
	for _, v := range orig {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("shuffle changed multiset: %q count delta %d", k, c)
		}
	}
}

// TestIntnGolden pins the Intn draw stream: every bootstrap resample and
// every simulated tool draws through it, so a change to the bounded
// sampling (the 128-bit multiply, the rejection threshold) would silently
// shift published numbers. The two large bounds reject a fraction of raw
// draws (about a quarter for 2^62+1), which the stream-position check
// below confirms, so Lemire's rejection path is pinned too.
func TestIntnGolden(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, []int{0, 0, 0, 0, 0, 0, 0, 0}},
		{7, []int{3, 2, 0, 6, 4, 2, 5, 5}},
		{561, []int{291, 176, 70, 508, 367, 184, 477, 432}},
		{1<<62 + 1, []int{2398402558738190094, 1452936666161881829, 575750518015798560, 3023194771573495320,
			3926999780561350014, 3553232210725635519, 1584762054126296367, 884321571761036019}},
		{math.MaxInt64, []int{4796805117476380187, 2905873332323763658, 1151501036031597120, 8359483074515653469,
			6046389543146990638, 3029023925689926743, 7853999561122700026, 7106464421451271036}},
	}
	for _, c := range cases {
		r := NewRNG(20150622)
		for i, want := range c.want {
			if got := r.Intn(c.n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", c.n, i, got, want)
			}
		}
		if c.n == 1<<62+1 {
			// Eight accepted draws must have consumed more than eight raw
			// values: at least one was rejected.
			raw := NewRNG(20150622)
			for range c.want {
				raw.Uint64()
			}
			if r.Uint64() == raw.Uint64() {
				t.Errorf("Intn(%d) made no rejection in %d draws", c.n, len(c.want))
			}
		}
	}
}
