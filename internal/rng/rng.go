// Package rng provides a deterministic, splittable pseudo-random number
// substrate for the whole repository.
//
// Reproducibility is a hard requirement for the experiments in this repo:
// every figure and table must regenerate identically from a seed, regardless
// of goroutine scheduling. The standard library's global rand source is
// shared mutable state, so instead each component owns an independent
// *rng.Rand stream derived with Split, which produces statistically
// independent child streams from a parent deterministically.
//
// The generator is xoshiro256** seeded through splitmix64, the construction
// recommended by the xoshiro authors. It is not cryptographically secure and
// is not meant to be.
package rng

import "math"

// Rand is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; derive per-goroutine streams with Split instead of
// sharing one instance.
type Rand struct {
	s [4]uint64
	// cached second Gaussian from the polar Box-Muller transform
	gauss    float64
	hasGauss bool
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand a single 64-bit seed into the 256-bit xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r in place exactly as New(seed) would, letting
// long-lived owners (e.g. training loops that reseed per iteration) avoid
// allocating a fresh generator.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasGauss = false
	r.gauss = 0
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
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

// Split derives a new, statistically independent stream from r. The parent
// advances, so successive Splits yield distinct children. Children are
// themselves splittable, forming a deterministic tree of streams.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// simple modulo bias is negligible for n << 2^64 but we still avoid it
	// with rejection sampling on the top bits.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// NormFloat64 returns a standard normal variate via the polar Box-Muller
// method, caching the paired value.
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	return r.PermInto(make([]int, n))
}

// PermInto fills p with a uniformly random permutation of [0, len(p)) and
// returns it, consuming exactly the same random draws as Perm — callers can
// swap an allocating Perm for a reusable buffer without changing any
// seeded trajectory.
func (r *Rand) PermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// FillNorm fills dst with independent N(mu, sigma) variates.
func (r *Rand) FillNorm(dst []float64, mu, sigma float64) {
	for i := range dst {
		dst[i] = mu + sigma*r.NormFloat64()
	}
}

// FillUniform fills dst with independent U[lo, hi) variates.
func (r *Rand) FillUniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = r.Uniform(lo, hi)
	}
}

// Bipolar returns -1 or +1 with equal probability.
func (r *Rand) Bipolar() float64 {
	if r.Uint64()&1 == 0 {
		return -1
	}
	return 1
}
