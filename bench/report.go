package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

// metric is one reported number. Value is what the result line prints;
// the rest backs it up in the -out file.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind Value (rounds, requests or spans).
	N int `json:"n"`
	// TailPct and Tail are the tail rule's percentile and value for a
	// timing (see tail); absent when N is too small.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	// Rounds holds the values, one per round or per server start, where
	// Value is their median.
	Rounds []float64 `json:"rounds,omitempty"`
}

// infSentinel stands in for +Inf (a failed request's latency) in JSON,
// which has no infinity: 1e9 ms is eleven days.
const infSentinel = 1e9

func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return infSentinel
	}
	return v
}

// timing summarises durations in ms: the median, plus the tail rule's
// percentile when there are enough samples.
func timing(xs []float64) metric {
	m := metric{Value: finite(median(xs)), Unit: "ms", N: len(xs)}
	if pct, v, ok := tail(xs); ok {
		m.TailPct, m.Tail = pct, finite(v)
	}
	return m
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// e2eNames are the end-to-end metrics, in print order; BENCHMARK.json
// fixes their units and directions, and the bounds of those it gates.
var e2eNames = []string{
	"setup_s", "throughput_fps", "latency_p50_ms", "latency_p99_ms", "success_ratio",
	"slo_ok_ratio", "server_peak_rss_mb", "modeled_kfps_per_w", "reference_agreement",
}

// scope names the one workload an end-to-end metric describes: the
// model agreement is a property of infer-plane's model, and only
// mixed-open has a schedule to keep a latency limit against. Every
// workload's result line still carries both, as it carries every metric
// BENCHMARK.json lists; the table and -compare show them only there.
var scope = map[string]string{"reference_agreement": "infer-plane", "slo_ok_ratio": "mixed-open"}

// inScope reports whether metric name describes workload wl.
func inScope(name, wl string) bool {
	only, ok := scope[name]
	return !ok || only == wl
}

// endToEnd computes the workload's end-to-end metrics.
func (w *workload) endToEnd() (map[string]metric, error) {
	lat, _, _, slo := w.pooled()
	if len(lat) == 0 {
		return nil, fmt.Errorf("bench: %s measured no requests", w.name)
	}
	var fps, rss []float64
	for _, r := range w.rounds {
		fps = append(fps, r.throughput())
		rss = append(rss, r.rssMB)
	}
	energy := 0.0
	for _, j := range w.energyJ {
		energy += j
	}
	if energy == 0 {
		return nil, fmt.Errorf("bench: %s fixed inputs carried no modelled energy", w.name)
	}
	attempted, failed := w.totals()
	lt := timing(lat)
	if lt.TailPct == 0 {
		return nil, fmt.Errorf("bench: %s collected %d samples, too few for a tail percentile", w.name, len(lat))
	}
	return map[string]metric{
		"setup_s":        {Value: median(w.setups), Unit: "s", N: len(w.setups), Rounds: w.setups},
		"throughput_fps": {Value: median(fps), Unit: "fps", N: len(fps), Rounds: fps},
		"latency_p50_ms": lt,
		"latency_p99_ms": {Value: lt.Tail, Unit: "ms", N: lt.N, TailPct: lt.TailPct, Tail: lt.Tail},
		"success_ratio":  {Value: ratio(float64(attempted-failed), float64(attempted)), Unit: "ratio", N: attempted},
		"slo_ok_ratio":   {Value: ratio(float64(slo), float64(len(lat))), Unit: "ratio", N: len(lat)},
		// The median round: the highest peak depends on how the garbage
		// collector's timing met the largest bodies in flight.
		"server_peak_rss_mb": {Value: median(rss), Unit: "MB", N: len(rss), Rounds: rss},
		// Modelled from the fixed inputs' X-Lightator-Energy-J, never
		// measured: frames per joule, in thousands.
		"modeled_kfps_per_w":  {Value: float64(len(w.energyJ)) / energy / 1000, Unit: "kfps/W", N: len(w.energyJ)},
		"reference_agreement": {Value: w.agreement, Unit: "ratio", N: 1},
	}, nil
}

// totals counts requests attempted and failed: the measured ones and the
// fixed inputs.
func (w *workload) totals() (attempted, failed int) {
	lat, _, ok, _ := w.pooled()
	return len(lat) + w.attempted, len(lat) - ok + w.failed
}

// opticalLayers are the layers replayed on the ABFT-off twin.
func opticalLayers() []string {
	names := []string{"oc.ca"}
	for _, k := range servedKernels {
		names = append(names, "kernels."+k)
	}
	for _, m := range servedModels {
		names = append(names, "infer."+m)
	}
	return names
}

// perLayer computes the traced run's per-layer metrics; p50 is the
// workload's end-to-end median latency in ms.
func (w *workload) perLayer(p50 float64) map[string]metric {
	by := w.rp.rec.by
	out := map[string]metric{}
	span := func(name string) metric { return timing(msAll(by[name])) }
	for _, name := range []string{"server.decode", "server.encode", "sensor.capture", "oc.ca", "session.frame"} {
		out[name+"_ms"] = span(name)
	}
	for _, name := range opticalLayers() {
		if name != "oc.ca" {
			out[name+"_ms"] = span(name)
		}
		on, off := median(msAll(by[name])), median(msAll(by[name+".noabft"]))
		out[name+".abft_overhead"] = metric{Value: (on - off) / off, Unit: "ratio", N: len(by[name])}
	}
	out["pipeline.overhead_ms"] = timing(msAll(w.overhead))
	// The residual is what the replayed layers do not explain: queue
	// wait, batch wait and HTTP.
	path := median(msAll(w.onPath))
	out["server.residual_ms"] = metric{Value: p50 - path, Unit: "ms", N: len(w.onPath)}

	var c counters
	frames := 0
	for _, r := range w.rounds {
		c = c.add(r.delta)
		for _, s := range r.samples {
			if s.ok {
				frames++
			}
		}
	}
	flushes := float64(c.sizeFl + c.deadlineFl)
	out["server.cache_hit_ratio"] = metric{Value: ratio(float64(c.hits), float64(c.hits+c.misses)), Unit: "ratio", N: int(c.hits + c.misses)}
	out["server.batch_size_mean"] = metric{Value: ratio(float64(c.batched), flushes), Unit: "frames", N: int(flushes)}
	out["server.deadline_flush_ratio"] = metric{Value: ratio(float64(c.deadlineFl), flushes), Unit: "ratio", N: int(flushes)}
	out["oc.abft_checks_per_frame"] = metric{Value: ratio(float64(c.abftChecks), float64(frames)), Unit: "count", N: frames}
	out["kernels.reconstruct-cg.passes_per_sample"] = metric{
		Value: ratio(float64(w.rp.cgPasses), float64(w.rp.cgSamples)), Unit: "count", N: int(w.rp.cgSamples)}
	out["session.reuse_ratio"] = metric{Value: w.reuse, Unit: "ratio", N: w.o.inputs}
	_, late, _, _ := w.pooled()
	lag := timing(late)
	out["bench.generator_late_ms_p99"] = metric{Value: lag.Tail, Unit: "ms", N: lag.N, TailPct: lag.TailPct, Tail: lag.Tail}
	return out
}

// record is one workload's run as the -out file keeps it.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	E2E        map[string]metric `json:"end_to_end"`
	Layers     map[string]metric `json:"per_layer,omitempty"`
}

// resultsFile is the -out file: every run appended to it.
type resultsFile struct {
	Runs []record `json:"runs"`
}

func (w *workload) record() (record, error) {
	e2e, err := w.endToEnd()
	if err != nil {
		return record{}, err
	}
	attempted, failed := w.totals()
	rec := record{
		Workload: w.name, Seed: w.o.seed, Seconds: w.o.measure.Seconds(), Traced: w.o.traced,
		Correct: w.mismatches.Load() == 0, Attempted: attempted, Failed: failed,
		FirstError: w.firstErr, E2E: e2e,
	}
	if w.o.traced {
		rec.Layers = w.perLayer(e2e["latency_p50_ms"].Value)
	}
	return rec, nil
}

// print writes a record's metrics, one per line, with units and counts.
func (r record) print(out io.Writer) {
	fmt.Fprintf(out, "== %s (seed %d, %gs measured): %d attempted, %d failed (error_ratio %.4g), outputs correct: %v\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)), r.Correct)
	if r.FirstError != "" {
		fmt.Fprintf(out, "   first failure: %s\n", r.FirstError)
	}
	line := func(name string, m metric) {
		fmt.Fprintf(out, "   %-42s %12.6g %-7s n=%d", name, m.Value, m.Unit, m.N)
		if m.TailPct > 0 {
			fmt.Fprintf(out, "  p%.4g=%.6g", m.TailPct, m.Tail)
		}
		if len(m.Rounds) > 0 {
			fmt.Fprintf(out, "  rounds=%.6g", m.Rounds)
		}
		fmt.Fprintln(out)
	}
	for _, name := range e2eNames {
		if inScope(name, r.Workload) {
			line(name, r.E2E[name])
		}
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(out, "   -- per layer (traced run)")
		names := make([]string, 0, len(r.Layers))
		for name := range r.Layers {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			line(name, r.Layers[name])
		}
	}
}

// specMetric is one metric BENCHMARK.json names.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json this program reads: which metrics
// the result line carries, and the bounds -compare judges them by.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// lookup finds a metric among a record's end-to-end and per-layer values.
func (r record) lookup(name string) (metric, bool) {
	if m, ok := r.E2E[name]; ok {
		return m, true
	}
	m, ok := r.Layers[name]
	return m, ok
}

// resultLine is the last line of standard output: the listed metrics
// (BENCHMARK.json's end-to-end list for an untraced run, its per-layer
// list for a traced one). With several workloads, each name is prefixed
// by its workload. ok reports whether every output check passed.
func resultLine(recs []record, list []specMetric) (line []byte, ok bool, err error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range recs {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, want := range list {
			m, found := r.lookup(want.Name)
			if !found || m.Unit != want.Unit {
				return nil, false, fmt.Errorf("bench: %s has no %s in %s (got %+v)", r.Workload, want.Name, want.Unit, m)
			}
			name := want.Name
			if len(recs) > 1 {
				name = r.Workload + "/" + name
			}
			res.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, err = json.Marshal(res)
	return line, res.Correct, err
}

// appendRuns adds recs to the results file at path, creating it.
func appendRuns(path string, recs []record) error {
	var f resultsFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("bench: %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	f.Runs = append(f.Runs, recs...)
	return writeJSON(path, f)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// describe is a one-line summary of the run's shape for the log.
func describe(o options, names []string) string {
	return fmt.Sprintf("workloads %s, seed %d: %d rounds of %v after %v warm-up each, %d server starts timed, %d fixed inputs, traced=%v, sensor %dx%d",
		strings.Join(names, ","), o.seed, o.rounds, o.measure/time.Duration(o.rounds), o.warmup, o.rounds*(1+setupProbes), o.inputs, o.traced, o.rows, o.cols)
}
