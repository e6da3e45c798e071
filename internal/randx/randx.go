// Package randx provides deterministic, seedable random utilities for the
// simulator. Every experiment in this repository derives its randomness from
// an explicit seed so that runs are reproducible; no package-level mutable
// RNG state exists.
package randx

import (
	"math"
	"math/rand/v2"
)

// Rand is a deterministic random source with the distribution helpers the
// workload and attack models need. It is not safe for concurrent use; derive
// one per goroutine with Derive.
type Rand struct {
	src *rand.Rand
}

// New returns a Rand seeded from the two seed words.
func New(seed1, seed2 uint64) *Rand {
	return &Rand{src: rand.New(rand.NewPCG(seed1, seed2))}
}

// Derive returns a new Rand whose stream is a deterministic function of the
// parent seed and the stream labels. It is used to give every run, VM and
// model its own independent substream, so that adding consumers does not
// perturb the draws seen by existing ones.
func Derive(seed uint64, labels ...uint64) *Rand {
	h := splitmix(seed)
	for _, l := range labels {
		h = splitmix(h ^ splitmix(l))
	}
	return New(h, splitmix(h))
}

// DeriveString is Derive with a string label, hashed with FNV-1a.
func DeriveString(seed uint64, label string) *Rand {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return Derive(seed, h)
}

// splitmix is the SplitMix64 finalizer, used only for seed derivation.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// IntN returns a uniform draw in [0, n). n must be positive.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit draw.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.src.Float64() < p }

// Normal returns a Gaussian draw with the given mean and standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormal returns a lognormal draw whose underlying normal has the given
// mu and sigma. For sigma=0 it returns exp(mu) exactly.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// NoiseFactor returns a multiplicative noise term with mean 1 and the given
// coefficient of variation, drawn from a lognormal. cv=0 returns exactly 1.
func (r *Rand) NoiseFactor(cv float64) float64 {
	if cv <= 0 {
		return 1
	}
	// For a lognormal with parameters (mu, sigma), mean = exp(mu+sigma^2/2)
	// and cv^2 = exp(sigma^2)-1. Solve for mean 1.
	sigma2 := math.Log(1 + cv*cv)
	return r.LogNormal(-sigma2/2, math.Sqrt(sigma2))
}

// Noise is a precomputed mean-1 multiplicative-noise distribution with a
// fixed coefficient of variation: the lognormal (mu, sigma) parameters are
// solved once at construction, not on every draw as NoiseFactor does. Draws
// are bit-identical to NoiseFactor with the same cv. The zero value draws a
// constant 1.
type Noise struct {
	mu, sigma float64
	active    bool
}

// NewNoise returns the noise distribution for the given coefficient of
// variation. cv <= 0 yields the constant 1.
func NewNoise(cv float64) Noise {
	if cv <= 0 {
		return Noise{}
	}
	// For a lognormal with parameters (mu, sigma), mean = exp(mu+sigma^2/2)
	// and cv^2 = exp(sigma^2)-1. Solve for mean 1.
	sigma2 := math.Log(1 + cv*cv)
	return Noise{mu: -sigma2 / 2, sigma: math.Sqrt(sigma2), active: true}
}

// Factor draws one noise factor from r.
func (n Noise) Factor(r *Rand) float64 {
	if !n.active {
		return 1
	}
	return math.Exp(r.Normal(n.mu, n.sigma))
}

// Exp returns an exponential draw with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }
