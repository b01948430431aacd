package pipeline

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// histBuckets is the number of power-of-two latency buckets: bucket k
// holds observations in [2^k, 2^(k+1)) nanoseconds, which spans 1 ns to
// ~1 minute — more than any per-frame stage latency the simulator sees.
const histBuckets = 36

// LatencyHist is a fixed-size log2 latency histogram. It is cheap enough
// to update on every frame and coarse enough (one octave per bucket) to
// merge across workers without locks during the hot path.
type LatencyHist struct {
	Count   int
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [histBuckets]int
}

// bucketOf maps a duration to its histogram bucket.
func bucketOf(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	b := bits.Len64(uint64(d)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	h.Buckets[bucketOf(d)]++
}

// Merge folds another histogram into this one (worker-local accumulators
// are merged once at the end of a run).
func (h *LatencyHist) Merge(o LatencyHist) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
}

// Mean returns the average observed latency.
func (h *LatencyHist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile returns an upper bound on the q-quantile latency (the top of
// the bucket the q-th observation falls in). q is clipped to [0, 1].
func (h *LatencyHist) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int(q * float64(h.Count-1))
	seen := 0
	for k, n := range h.Buckets {
		seen += n
		if seen > rank {
			upper := time.Duration(uint64(1) << uint(k+1))
			if upper > h.Max || h.Max == 0 {
				return h.Max
			}
			return upper
		}
	}
	return h.Max
}

// String renders a one-line summary.
func (h *LatencyHist) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50<=%v p99<=%v max=%v",
		h.Count, h.Mean().Round(time.Microsecond),
		h.Quantile(0.5).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.Max.Round(time.Microsecond))
}

// Stats aggregates a pipeline run: frame throughput plus a latency
// histogram per stage.
type Stats struct {
	// Frames is the number of frames that completed (with or without a
	// per-frame error).
	Frames int
	// Errors is how many of those carried a per-frame error.
	Errors int
	// Wall is the end-to-end wall time of the run.
	Wall time.Duration
	// FPS is Frames / Wall — the aggregate throughput across workers.
	FPS float64
	// Workers is the worker count the run used.
	Workers int
	// Capture, Compress, Kernel, Infer and MatVec are per-stage latency
	// histograms; stages that were not enabled have Count == 0.
	Capture  LatencyHist
	Compress LatencyHist
	Kernel   LatencyHist
	Infer    LatencyHist
	MatVec   LatencyHist
}

// StageReport is a JSON-marshalable latency summary of one stage, with
// quantiles resolved from the histogram (all durations in nanoseconds).
type StageReport struct {
	Count  int   `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	MinNS  int64 `json:"min_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// Report resolves the histogram into a machine-readable summary.
func (h *LatencyHist) Report() StageReport {
	return StageReport{
		Count:  h.Count,
		MeanNS: int64(h.Mean()),
		P50NS:  int64(h.Quantile(0.5)),
		P99NS:  int64(h.Quantile(0.99)),
		MinNS:  int64(h.Min),
		MaxNS:  int64(h.Max),
	}
}

// StatsReport is the machine-readable counterpart of Stats, consumed by
// the serving layer's /metrics endpoint. Stages that never ran report
// Count == 0.
type StatsReport struct {
	Frames   int         `json:"frames"`
	Errors   int         `json:"errors"`
	Workers  int         `json:"workers"`
	WallNS   int64       `json:"wall_ns"`
	FPS      float64     `json:"fps"`
	Capture  StageReport `json:"capture"`
	Compress StageReport `json:"compress"`
	Kernel   StageReport `json:"kernel"`
	Infer    StageReport `json:"infer"`
	MatVec   StageReport `json:"matvec"`
}

// Report exports the stats snapshot in machine-readable form.
func (s *Stats) Report() StatsReport {
	return StatsReport{
		Frames:   s.Frames,
		Errors:   s.Errors,
		Workers:  s.Workers,
		WallNS:   int64(s.Wall),
		FPS:      s.FPS,
		Capture:  s.Capture.Report(),
		Compress: s.Compress.Report(),
		Kernel:   s.Kernel.Report(),
		Infer:    s.Infer.Report(),
		MatVec:   s.MatVec.Report(),
	}
}

// merge folds a worker-local accumulator into the run totals.
func (s *Stats) merge(o *Stats) {
	s.Frames += o.Frames
	s.Errors += o.Errors
	s.Capture.Merge(o.Capture)
	s.Compress.Merge(o.Compress)
	s.Kernel.Merge(o.Kernel)
	s.Infer.Merge(o.Infer)
	s.MatVec.Merge(o.MatVec)
}

// Render returns a human-readable multi-line summary.
func (s *Stats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline: %d frames, %d workers, %v wall, %.1f frames/sec",
		s.Frames, s.Workers, s.Wall.Round(time.Millisecond), s.FPS)
	if s.Errors > 0 {
		fmt.Fprintf(&b, " (%d frame errors)", s.Errors)
	}
	for _, st := range []struct {
		name string
		h    *LatencyHist
	}{{"capture", &s.Capture}, {"compress", &s.Compress}, {"kernel", &s.Kernel}, {"infer", &s.Infer}, {"matvec", &s.MatVec}} {
		if st.h.Count > 0 {
			fmt.Fprintf(&b, "\n  %-8s %s", st.name, st.h.String())
		}
	}
	return b.String()
}
