// Package rng provides the deterministic, high-throughput pseudo-random
// number generators used throughout the BayesPerf reproduction.
//
// The generator is xoshiro256**, a small-state generator with excellent
// statistical quality and a few-ns step cost, seeded via splitmix64 so that
// any 64-bit seed yields a well-mixed state. Every stochastic component in
// this repository (ground-truth workload generation, measurement noise and
// injected outliers) draws uniform and Gaussian variates from an explicitly
// seeded *rng.Rand, so experiments are reproducible run to run.
package rng

import "math"

// splitmix64 advances the splitmix64 state and returns the next value.
// It is used only for seeding xoshiro256** state words.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not valid; use New.
type Rand struct {
	s [4]uint64

	// Cached second Gaussian from the last Box–Muller transform.
	gauss    float64
	hasGauss bool
}

// New returns a generator seeded from the given 64-bit seed. Distinct seeds
// produce statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed, discarding any cached values.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	r.hasGauss = false
}

// Split returns a new generator whose stream is independent of r's
// continuation. It is used to hand child components their own streams (one
// for the ground-truth trace, one for the sampler, ...) without sharing
// state.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard Gaussian variate via Box–Muller, caching
// the second variate of each transform.
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.gauss = radius * math.Sin(theta)
	r.hasGauss = true
	return radius * math.Cos(theta)
}

// Gaussian returns a Gaussian variate with the given mean and standard
// deviation.
func (r *Rand) Gaussian(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}
