package photonics

import "math/rand"

// NoiseSource produces deterministic Gaussian samples for the analog noise
// models (shot, thermal, RIN). A seeded source makes every simulation and
// test reproducible while still exercising the noisy code paths.
type NoiseSource struct {
	src rand.Source
	rng *rand.Rand
}

// NewNoiseSource returns a Gaussian noise source with the given seed.
func NewNoiseSource(seed int64) *NoiseSource {
	src := rand.NewSource(seed)
	return &NoiseSource{src: src, rng: rand.New(src)}
}

// Reseed re-initializes the source in place to the exact state of
// NewNoiseSource(seed): the sample stream after Reseed(s) is bit-identical
// to that of a freshly constructed source with seed s (the generator state
// is fully determined by the seed, and the samplers carry no state of
// their own). Hot paths that need one independent stream per output row
// (oc.Applier.ApplySeededInto) pool sources and reseed them instead of allocating a
// new generator (~5 KiB of math/rand state) per stream. Not safe
// concurrently with other methods on the same source.
func (n *NoiseSource) Reseed(seed int64) {
	n.src.Seed(seed)
}

// Normal returns one standard-normal sample.
func (n *NoiseSource) Normal() float64 {
	return n.rng.NormFloat64()
}

// Gaussian returns a sample from N(mean, sigma^2).
func (n *NoiseSource) Gaussian(mean, sigma float64) float64 {
	return mean + sigma*n.rng.NormFloat64()
}

// Uniform returns a sample from U[lo, hi).
func (n *NoiseSource) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*n.rng.Float64()
}
