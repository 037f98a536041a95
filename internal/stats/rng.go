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
// stack.
func (r *RNG) splitInto(child *RNG) {
	child.seed(r.SplitSeed())
}

// SplitSeed advances r as Split does and returns the seed Split would
// give the child: NewRNG(r.SplitSeed()) is r.Split(). A caller that
// keeps many derived streams for later can keep their 8-byte seeds
// instead of 32-byte generators.
func (r *RNG) SplitSeed() uint64 {
	return r.Uint64() ^ 0xd1342543de82ef95
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream: one xoshiro256** step.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	u := rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	r.s = [4]uint64{s0, s1, s2, s3}
	return u
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
	m := binomialMode(n, p)
	return chopDown(u, n, m, modePMF(n, m, p), p/(1-p))
}

// binomialMode returns the mode ⌊(n+1)p⌋ of Binomial(n, p), at most n.
func binomialMode(n int, p float64) int {
	return min(int(float64(n+1)*p), n)
}

// modePMF returns the Binomial(n, p) pmf at m.
func modePMF(n, m int, p float64) float64 {
	return math.Exp(logFactorial(n) - logFactorial(m) - logFactorial(n-m) + float64(m)*math.Log(p) + float64(n-m)*math.Log1p(-p))
}

// chopDown is Binomial's walk: given the uniform u, the mode m of
// Binomial(n, p), its pmf pm and the odds p/(1−p), it returns the value
// at which the pmfs subtracted from u, taken from the mode outwards,
// first take u below 0.
func chopDown(u float64, n, m int, pm, odds float64) int {
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

// logFactorials is the size of the ln(k!) table Binomial reads: it
// covers every table the experiments resample (E4c and E7 draw from 561
// sinks) and every workload the metric-property analysis samples (up to
// 1300 negatives at its default size).
const logFactorials = 2048

// logFactorialTable holds math.Lgamma(k+1) for k < logFactorials,
// computed once, so a draw looks its constants up instead of evaluating
// three log-gammas.
var logFactorialTable = func() *[logFactorials]float64 {
	var t [logFactorials]float64
	for k := range t {
		t[k], _ = math.Lgamma(float64(k + 1))
	}
	return &t
}()

// logFactorial returns ln(k!) for k >= 0, bit for bit what
// math.Lgamma(float64(k+1)) returns.
func logFactorial(k int) float64 {
	if k < logFactorials {
		return logFactorialTable[k]
	}
	v, _ := math.Lgamma(float64(k + 1))
	return v
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

// resampler is Resample for one base table drawn many times, as a
// bootstrap draws it. What a draw of Resample derives from the table
// alone, it derives once: each code's binomial p (folded to at most 0.5,
// as Binomial folds it), its odds and the last nonzero code. And it
// remembers the pmf at the mode, the one costly constant of a binomial
// draw, per (code, records left). The records left at a code spread
// around the count of the codes not yet visited with a standard
// deviation of at most √n/2, so each code keeps a window of four
// standard deviations either side of that count in one flat table,
// allocated once; a count outside its window is evaluated afresh. A
// draw consumes exactly the stream, and gives exactly the counts, of
// Resample on the same table.
type resampler struct {
	base  *[16]int
	total int
	last  int         // the last nonzero code, which takes what is left
	p     [16]float64 // the binomial's p for each code, at most 0.5
	odds  [16]float64 // p/(1−p)
	flip  [16]bool    // the code draws left − Binomial(left, p)
	lo    [16]int     // code c's window covers left in lo[c] ≤ left < lo[c]+off[c+1]−off[c]
	off   [17]int     // and its pmfs sit at pmf[off[c]:off[c+1]]
	pmf   []float64   // the pmf at the mode; 0 until first needed
}

// newResampler builds the resampler of base, which it reads on every
// draw: base must not change while the resampler is in use.
func newResampler(base *[16]int) resampler {
	s := resampler{base: base, last: -1}
	for c, k := range base {
		s.total += k
		if k > 0 {
			s.last = c
		}
	}
	n, rest := s.total, s.total // rest: the count of the codes not yet visited
	for c, k := range base {
		s.off[c+1] = s.off[c]
		if k > 0 && c != s.last {
			p := float64(k) / float64(rest)
			if p > 0.5 {
				s.flip[c], p = true, 1-p
			}
			s.p[c], s.odds[c] = p, p/(1-p)
			half := int(math.Ceil(4 * math.Sqrt(float64(rest)*float64(n-rest)/float64(n))))
			s.lo[c] = max(rest-half, 1)
			s.off[c+1] += min(rest+half, n) - s.lo[c] + 1
		}
		rest -= k
	}
	s.pmf = make([]float64, s.off[16])
	return s
}

// draw is r.Resample(s.base, out).
func (s *resampler) draw(r *RNG, out *[16]int) {
	left := s.total // the records not yet placed
	for c, k := range s.base {
		switch {
		case k == 0:
			out[c] = 0
		case c == s.last:
			out[c] = left
		default:
			x := s.binomial(r, c, left)
			out[c] = x
			left -= x
		}
	}
}

// binomial is r.Binomial(n, k/rest) for code c, whose count is k and
// before which rest records of the table remain.
func (s *resampler) binomial(r *RNG, c, n int) int {
	x, p := 0, s.p[c]
	if n > 0 && p > 0 {
		u := r.Float64()
		m := binomialMode(n, p)
		var pm float64
		if i := n - s.lo[c]; i >= 0 && i < s.off[c+1]-s.off[c] {
			slot := &s.pmf[s.off[c]+i]
			if *slot == 0 {
				*slot = modePMF(n, m, p)
			}
			pm = *slot
		} else {
			pm = modePMF(n, m, p)
		}
		x = chopDown(u, n, m, pm, s.odds[c])
	}
	if s.flip[c] {
		return n - x
	}
	return x
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
