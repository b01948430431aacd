package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tail must sort
	}
	return xs
}

// TestTailRule pins the tail rule: the highest percentile, at most the
// 99th, with at least ten samples beyond it, failures counted as +Inf.
func TestTailRule(t *testing.T) {
	inf := math.Inf(1)
	withFailures := func(n, failed int) []float64 {
		xs := seq(n - failed)
		for i := 0; i < failed; i++ {
			xs = append(xs, inf)
		}
		return xs
	}
	for _, tc := range []struct {
		name     string
		xs       []float64
		ok       bool
		pct, val float64
	}{
		{"1000 samples reach p99", seq(1000), true, 99, 990},
		{"2000 samples stay at p99", seq(2000), true, 99, 1980},
		{"500 samples stop at p98", seq(500), true, 98, 490},
		{"11 samples leave ten beyond the first", seq(11), true, 100.0 / 11, 1},
		{"10 samples support no percentile", seq(10), false, 0, 0},
		{"failures beyond p99 make it infinite", withFailures(1000, 11), true, 99, inf},
		{"failures inside the last ten leave p99 finite", withFailures(1000, 10), true, 99, 990},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pct, v, ok := tail(tc.xs)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if math.Abs(pct-tc.pct) > 1e-9 || v != tc.val {
				t.Fatalf("tail = p%g %g, want p%g %g", pct, v, tc.pct, tc.val)
			}
			beyond := 0
			for _, x := range tc.xs {
				if x > v || (math.IsInf(v, 1) && math.IsInf(x, 1)) {
					beyond++
				}
			}
			if !math.IsInf(v, 1) && beyond < minBeyond {
				t.Fatalf("%d samples beyond p%g, want at least %d", beyond, pct, minBeyond)
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the method spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},                  // quantiles(range(1, 11), n=4)
		{[]float64{3, 1, 2}, 1, 3},             // quantiles([1, 2, 3], n=4)
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},    // quantiles([1, 2, 4, 5], n=4)
		{[]float64{0.9, 1.1}, 0.85, 1.1500000}, // quantiles([0.9, 1.1], n=4)
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(1..4) = %g, want 2.5", m)
	}
}

// TestVerdict covers each outcome of the comparison rule.
func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		bound          float64
		lower          bool
		want           string
	}{
		{"same runs are unchanged", steady, steady, 0.1, true, "unchanged"},
		{"faster on every pair is improved", steady, shift(steady, -8), 0.1, true, "improved"},
		{"slower beyond the bound is regressed", steady, shift(steady, 15), 0.1, true, "regressed"},
		{"higher-is-better flips the direction", steady, shift(steady, -15), 0.1, false, "regressed"},
		{"too few pairs cannot claim a gain", steady[:5], shift(steady[:5], -8), 0.1, true, "unchanged"},
		{"a spread wider than the bound is unresolved", []float64{50, 150, 80, 120}, []float64{100, 100}, 0.1, true, "unresolved"},
		{"exact metrics regress when the median drops", []float64{1, 1, 1}, []float64{0.9, 0.9, 1}, 0, false, "regressed"},
		{"an ungated metric regresses when every run is worse", []float64{10, 12, 11, 13}, []float64{15, 16, 17, 18}, 0, true, "regressed"},
		{"an ungated metric is unresolved when the runs overlap", []float64{10, 12, 11, 13}, []float64{11, 14, 12, 13}, 0, true, "unresolved"},
	} {
		if got := verdict(tc.parent, tc.change, tc.bound, tc.lower); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestJudgeCountsFailures checks that failures are judged on their sum
// over every run: one failing run of ten regresses success_ratio although
// the median run had none, and a workload whose failures rose claims no
// gain on a faster metric.
func TestJudgeCountsFailures(t *testing.T) {
	runs := func(fps float64, failedRuns int) side {
		s := side{values: map[string][]float64{}}
		for i := 0; i < 10; i++ {
			s.attempted += 1000
			ok := 1.0
			if i < failedRuns {
				s.failed++
				ok = 0.999
			}
			s.values["success_ratio"] = append(s.values["success_ratio"], ok)
			s.values["throughput_fps"] = append(s.values["throughput_fps"], fps+float64(i%2))
		}
		return s
	}
	success := specMetric{Name: "success_ratio", Better: "higher"}
	fps := specMetric{Name: "throughput_fps", Better: "higher"}
	for _, tc := range []struct {
		name           string
		m              specMetric
		parent, change side
		want           string
	}{
		{"one failing run regresses success_ratio", success, runs(60, 0), runs(60, 1), "regressed"},
		{"fewer failures improve success_ratio", success, runs(60, 2), runs(60, 0), "improved"},
		{"equal failures leave success_ratio unchanged", success, runs(60, 1), runs(60, 1), "unchanged"},
		{"a faster change without new failures is improved", fps, runs(60, 0), runs(70, 0), "improved"},
		{"a faster change with new failures claims no gain", fps, runs(60, 0), runs(70, 1), "unchanged"},
	} {
		if got := judge(tc.m, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}
