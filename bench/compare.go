package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// minPairs is how many parent/change pairs a claimed gain needs, and
// winShare the share of them the change must win.
const (
	minPairs = 10
	winShare = 0.9
)

// verdict judges one metric on one workload from the parent's and the
// change's per-run values, in run order (pair i is parent[i] against
// change[i]). bound is the share of the parent's median the metric may
// worsen by (0 for an ungated per-layer metric); lower says which
// direction is better.
//
//   - regressed: every change run is worse than every parent run, or the
//     spread is within the bound and the change's median is worse by more
//     than the bound;
//   - unresolved: the parent's interquartile range, as a share of its
//     median, exceeds the bound, unless every change run beats every
//     parent run;
//   - improved: at least minPairs pairs, the change wins winShare of
//     them (ties count for neither), and the medians differ by more
//     than the parent's interquartile range;
//   - unchanged otherwise.
func verdict(parent, change []float64, bound float64, lower bool) string {
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	allBetter := slices.Min(change) > slices.Max(parent)
	allWorse := slices.Max(change) < slices.Min(parent)
	if lower {
		allBetter, allWorse = allWorse, allBetter
	}
	scale := math.Abs(pm)
	worse := cm - pm
	if !lower {
		worse = pm - cm
	}
	switch {
	case allWorse && worse > bound*scale:
		return "regressed"
	case iqr > bound*scale && !allBetter:
		return "unresolved"
	case worse > bound*scale:
		return "regressed"
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if pairs >= minPairs && float64(wins) >= winShare*float64(pairs) && better(cm, pm) && math.Abs(cm-pm) > iqr {
		return "improved"
	}
	return "unchanged"
}

// side is one results file's runs of one workload.
type side struct {
	values            map[string][]float64 // metric -> per-run values
	attempted, failed int                  // summed over the runs
}

func (s side) failRate() float64 { return ratio(float64(s.failed), float64(s.attempted)) }

// judge gives metric m's verdict on one workload. success_ratio is
// judged on the failures summed over every run, since a median hides a
// minority of failing runs: any rise in the failure rate is a
// regression. A workload whose failure rate rose claims no gain on any
// metric.
func judge(m specMetric, parent, change side) string {
	rose := change.failRate() > parent.failRate()
	if m.Name == "success_ratio" {
		switch {
		case rose:
			return "regressed"
		case change.failRate() < parent.failRate():
			return "improved"
		}
		return "unchanged"
	}
	v := verdict(parent.values[m.Name], change.values[m.Name], m.Bound, m.Better == "lower")
	if v == "improved" && rose {
		return "unchanged"
	}
	return v
}

// compareMain prints, per workload and metric of BENCHMARK.json, the
// median and quartiles of both results files and the verdict: under the
// metric's bound for a gated end-to-end metric, and with no tolerance
// for an ungated per-layer one.
func compareMain(root string, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two results files: parent.json change.json")
		return 2
	}
	var sp spec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &sp); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var sides [2]map[string]*side // by workload
	for i, path := range files {
		var f resultsFile
		if err := readJSON(path, &f); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sides[i] = map[string]*side{}
		for _, r := range f.Runs {
			s := sides[i][r.Workload]
			if s == nil {
				s = &side{values: map[string][]float64{}}
				sides[i][r.Workload] = s
			}
			s.attempted += r.Attempted
			s.failed += r.Failed
			for _, ms := range []map[string]metric{r.E2E, r.Layers} {
				for name, m := range ms {
					s.values[name] = append(s.values[name], m.Value)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%-14s %-42s %6s %27s %27s  %s\n", "workload", "metric", "bound", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
	for _, wl := range workloadNames {
		p, c := sides[0][wl], sides[1][wl]
		if p == nil || c == nil {
			continue
		}
		fmt.Fprintf(stdout, "%-14s failed %d of %d at the parent, %d of %d at the change\n", wl, p.failed, p.attempted, c.failed, c.attempted)
		for _, group := range []struct {
			gated bool
			list  []specMetric
		}{{true, sp.EndToEnd}, {false, sp.PerLayer}} {
			for _, m := range group.list {
				pv, cv := p.values[m.Name], c.values[m.Name]
				if len(pv) == 0 || len(cv) == 0 || !inScope(m.Name, wl) {
					continue
				}
				bound := "-"
				if group.gated {
					bound = fmt.Sprintf("%.3g", m.Bound)
				}
				pq1, pq3 := quartiles(pv)
				cq1, cq3 := quartiles(cv)
				fmt.Fprintf(stdout, "%-14s %-42s %6s %10.5g [%6.5g, %6.5g] %10.5g [%6.5g, %6.5g]  %s (n=%d/%d)\n",
					wl, m.Name, bound, median(pv), pq1, pq3, median(cv), cq1, cq3,
					judge(m, *p, *c), len(pv), len(cv))
			}
		}
	}
	return 0
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("bench: %s: %w", path, err)
	}
	return nil
}
