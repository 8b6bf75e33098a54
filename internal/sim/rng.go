package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source with the distributions the MCPS
// models need. It wraps math/rand with an explicit seed so that every
// simulation run is reproducible from its seed alone.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a seeded generator. The same seed yields the same stream.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream. Children are decorrelated by
// hashing the label into the parent's stream, so adding a new consumer does
// not perturb existing ones as long as labels are stable.
//
// Fork consumes one draw from the parent, so the child depends on how many
// forks preceded it. That is the right behaviour inside a single
// simulation, where construction order is fixed, but wrong for fleet-style
// parallel ensembles: use SubSeed/Substream there, which derive children
// purely from (seed, label, index) and are therefore independent of
// construction and scheduling order.
func (g *RNG) Fork(label string) *RNG {
	var h int64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ g.r.Int63())
}

// SubSeed derives a named substream seed from a base seed. The derivation
// is a pure function of (seed, label, index): FNV-1a over the inputs with a
// splitmix64 finalizer to scatter nearby seeds and indices across the
// seed space. Unlike Fork it consumes no generator state, so any worker
// can derive cell i's seed without replaying cells 0..i-1 — the property
// the fleet runner's determinism-under-parallelism guarantee rests on.
func SubSeed(seed int64, label string, index int) int64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	const prime = 1099511628211
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(seed))
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	mix(uint64(index))
	// splitmix64 finalizer
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// Substream returns a generator for the named substream of a base seed.
// Equivalent to NewRNG(SubSeed(seed, label, index)).
func Substream(seed int64, label string, index int) *RNG {
	return NewRNG(SubSeed(seed, label, index))
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a sample in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a Gaussian sample with the given mean and stddev.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma).
// Used for population pharmacokinetic parameter variability, which is
// conventionally log-normally distributed.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Exponential returns a sample with the given mean (not rate).
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(g.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac].
func (g *RNG) Jitter(base, frac float64) float64 {
	return base * g.Uniform(1-frac, 1+frac)
}

// TruncNormal returns a Normal(mean,stddev) sample clamped to [lo,hi].
func (g *RNG) TruncNormal(mean, stddev, lo, hi float64) float64 {
	v := g.Normal(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
