package sim

import "math/rand"

// RNG is a seeded random source for model components. Every component
// derives its RNG from the run's root seed so whole-system runs are
// reproducible and components are statistically independent.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent RNG from this one, labelled by id; two
// forks with different ids produce unrelated streams.
func (g *RNG) Fork(id int64) *RNG {
	// SplitMix-style scramble of (next, id) to decorrelate streams.
	z := uint64(g.r.Int63()) ^ (uint64(id) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Float64 returns a uniform float in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}
