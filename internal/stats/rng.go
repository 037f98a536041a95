// Package stats provides the deterministic statistics substrate used by
// every experiment in the repository: a seedable random number generator,
// descriptive statistics, bootstrap resampling, and correlation measures.
//
// The paper's evaluation depends on reproducible sampling (workload
// generation, simulated tool behaviour, bootstrap confidence intervals,
// MCDA sensitivity analysis). Go's standard library offers only a global,
// implicitly seeded math/rand; this package replaces it with an explicit,
// injectable generator so that every experiment is a pure function of its
// seed.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** with splitmix64 seeding. It is NOT safe for concurrent use;
// give each goroutine its own RNG (see Split).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed. Two generators
// built from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed (re)initialises the state in place: a splitmix64 expansion of the
// seed into the xoshiro state, per the reference implementation
// recommendation.
func (r *RNG) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives an independent generator from the current one. The derived
// stream is deterministic given the parent's state, and advancing the child
// does not advance the parent.
func (r *RNG) Split() *RNG {
	child := &RNG{}
	r.splitInto(child)
	return child
}

// splitInto is Split without the allocation: it reseeds child in place
// from the parent's next draw. Split stays small enough to inline
// through it, so a caller whose child does not escape keeps it on the
// stack (the campaign's per-cell streams rely on this).
func (r *RNG) splitInto(child *RNG) {
	child.seed(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	u, s0, s1, s2, s3 := step(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return u
}

// step is one xoshiro256** step: it returns the output for state (s0,
// s1, s2, s3) and the next state. It inlines, so the batch kernels below
// run it on state held in locals.
func step(s0, s1, s2, s3 uint64) (u, n0, n1, n2, n3 uint64) {
	u = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return u, s0, s1, s2, s3
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// Take the top 53 bits for a uniformly distributed double.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand; callers control n so this indicates a programming error.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform value in [0, un) for un > 0: Lemire's
// nearly-divisionless bounded sampling with rejection to remove modulo
// bias. Only a product whose low word is below un can be biased, so the
// threshold's division (2⁶⁴ mod un) is paid only then.
func (r *RNG) uint64n(un uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		for thresh := -un % un; lo < thresh; {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return hi
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// CountBernoulli below consumes exactly the stream of its per-call loop
// — same draws, same order, same final state — but keeps the
// xoshiro256** state in locals for the whole batch and writes it back
// once, instead of loading and storing r.s on every draw. The
// metric-property analysis samples its confusion matrices with it.

// CountBernoulli returns the number of successes in n calls of
// Bernoulli(p) and leaves r where those calls would. Like Bernoulli, it
// draws nothing when p <= 0 or p >= 1. A NaN p draws n times and never
// succeeds.
func (r *RNG) CountBernoulli(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Float64() < p compares k/2⁵³ with p for the 53-bit integer k; both
	// scalings by 2⁵³ are exact, so the test is k < ceil(p·2⁵³).
	var thresh uint64
	if !math.IsNaN(p) { // uint64(NaN) is implementation-defined
		thresh = uint64(math.Ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	hits := 0
	var u uint64
	for range n {
		u, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if u>>11 < thresh {
			hits++
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return hits
}

// Binomial returns a Binomial(n, p) variate, exactly, from one Float64:
// chop-down inversion from the mode. The uniform is compared with the
// pmf at the mode m = ⌊(n+1)p⌋ and then with the pmf of its neighbours,
// always taking the more probable of the next value below and above, so
// the expected number of steps is O(√(npq)) for any n. For p > 0.5 it
// returns n − Binomial(n, 1−p). It draws nothing, returning 0, when
// n ≤ 0 or p ≤ 0 (or p is NaN), and returns n, drawing nothing, when
// p ≥ 1.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || !(p > 0) {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	u := r.Float64()
	odds := p / (1 - p)
	m := min(int(float64(n+1)*p), n)
	lgN, _ := math.Lgamma(float64(n + 1))
	lgM, _ := math.Lgamma(float64(m + 1))
	lgRest, _ := math.Lgamma(float64(n - m + 1))
	pm := math.Exp(lgN - lgM - lgRest + float64(m)*math.Log(p) + float64(n-m)*math.Log1p(-p))
	if u -= pm; u < 0 {
		return m
	}
	lo, hi := m, m     // the values tried so far are lo..hi
	plo, phi := pm, pm // and these are the pmf at lo and at hi
	for {
		var nlo, nhi float64 // the pmf at lo-1 and hi+1; 0 past the support
		if lo > 0 {
			nlo = plo * float64(lo) / (float64(n-lo+1) * odds)
		}
		if hi < n {
			nhi = phi * float64(n-hi) / float64(hi+1) * odds
		}
		switch {
		case nlo == 0 && nhi == 0:
			// Rounding left a sliver of u past the support, or in tails
			// too light for a float64: the mode is the nearest value.
			return m
		case nhi >= nlo:
			hi, phi = hi+1, nhi
			if u -= phi; u < 0 {
				return hi
			}
		default:
			lo, plo = lo-1, nlo
			if u -= plo; u < 0 {
				return lo
			}
		}
	}
}

// Resample draws one bootstrap resample of a code table whose per-code
// counts are base, and stores its per-code counts in out: a
// Multinomial(n, base/n) draw, n the table's total, taken as a chain of
// conditional binomials. Codes are visited in order; a code with zero
// count stays 0 and draws nothing, and the last nonzero code takes what
// is left, so a table with one distinct code draws nothing at all. In
// distribution out equals the counts of n records drawn with
// Intn(n). base must hold non-negative counts; out may not alias it.
func (r *RNG) Resample(base, out *[16]int) {
	rest, last := 0, -1 // the count of the codes not yet visited
	for c, k := range base {
		rest += k
		if k > 0 {
			last = c
		}
	}
	left := rest // the records not yet placed
	for c, k := range base {
		switch {
		case k == 0:
			out[c] = 0
		case c == last:
			out[c] = left
		default:
			x := r.Binomial(left, float64(k)/float64(rest))
			out[c] = x
			left -= x
		}
		rest -= k
	}
}

// NormFloat64 returns a standard-normal value using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts performs an in-place Fisher–Yates shuffle.
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs an in-place Fisher–Yates shuffle using the provided
// swap function, mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniformly chosen index weighted by the given
// non-negative weights. It returns -1 if the weights sum to zero or the
// slice is empty.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	target := r.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	// Floating-point slack: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}
