package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: below that, the percentile is a small-sample artefact.
const minBeyond = 10

// tail applies the benchmark's tail rule to xs, where failed requests
// are +Inf: it reports the highest percentile, capped at the 99th, that
// still leaves at least minBeyond samples beyond it, and that
// percentile's nearest-rank value. ok is false when there are too few
// samples for any percentile to qualify.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	p := math.Min(0.99, float64(n-minBeyond)/float64(n))
	k := int(math.Ceil(p * float64(n)))
	// Ceil of a product that should be integral can land one rank high.
	k = min(k, n-minBeyond)
	return 100 * p, s[k-1], true
}

// median is the middle of xs (the mean of the two middle values for an
// even count); NaN for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// exclusive method Python's statistics.quantiles(xs, n=4) uses, so the
// spreads this program reports are the ones a reader recomputes from the
// raw values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to float milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
