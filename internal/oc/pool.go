// Scratch arenas for the MVM hot path. Every seeded apply needs a
// quantized copy of its activation vector and, in PhysicalNoisy fidelity,
// one Gaussian stream per output row; allocating those per call made the
// simulator GC-shaped instead of memory-bandwidth-shaped (docs/PERF.md).
// The pools below let the steady-state apply run allocation-free:
// float64 scratch comes from a shared sync.Pool, and noise sources are
// pooled and re-seeded in place (photonics.NoiseSource.Reseed), which
// yields the exact same sample stream as constructing a fresh source —
// the bit-identical determinism contract is pinned by the golden tests.
package oc

import (
	"sync"

	"lightator/internal/photonics"
)

// scratchPool holds *[]float64 (pointer, so Get/Put never allocate an
// interface box). Buffers grow monotonically and are reused across every
// caller of the package — kernels, infer and the pipeline all draw from
// the same arena.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// GetScratch returns a length-n float64 scratch slice from the shared
// pool. Contents are undefined; the caller must fully overwrite what it
// reads. Return the buffer with PutScratch when done. The extra
// indirection (a *[]float64 rather than a []float64) is what keeps the
// pool allocation-free: slice headers stored directly in an interface
// would be boxed on every Put.
func GetScratch(n int) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// PutScratch returns a scratch buffer to the shared pool. The slice must
// not be used after Put.
func PutScratch(p *[]float64) {
	if p == nil {
		return
	}
	scratchPool.Put(p)
}

// noisePool recycles per-row noise sources. A math/rand generator carries
// ~5 KiB of state; constructing one per output row per frame dominated
// the PhysicalNoisy allocation profile before pooling. Sources come out
// of the pool in an arbitrary state — callers must Reseed before every
// stream (applyRows does, per row).
var noisePool = sync.Pool{New: func() any { return photonics.NewNoiseSource(0) }}

// getNoise returns a pooled noise source (arbitrary state; reseed before
// use).
func getNoise() *photonics.NoiseSource {
	return noisePool.Get().(*photonics.NoiseSource)
}

// putNoise returns a noise source to the pool.
func putNoise(ns *photonics.NoiseSource) {
	noisePool.Put(ns)
}
