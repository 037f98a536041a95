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
// from the parent's next draw. The bootstrap's per-block streams use this
// to pre-split hundreds of value-typed generators with zero per-stream
// allocations; the derived streams are identical to Split's.
func (r *RNG) splitInto(child *RNG) {
	child.seed(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
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
	// Lemire's nearly-divisionless bounded sampling with rejection to
	// remove modulo bias.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
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
