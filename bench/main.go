// Command bench is the repository's end-to-end benchmark. It builds
// cmd/lightator-serve from the source tree, drives it over loopback HTTP
// with four seeded workloads, replays fixed inputs through each layer's
// public function to attribute the time per layer, checks every fixed
// response byte for byte against that replay, and prints each metric by
// name with its unit and sample count. See README.md.
//
// From the repository root:
//
//	go run ./bench --workload process-miss --seed 1 --seconds 18 --trace 0
//	go run ./bench -seed 1 -out set.json -spans spans.json
//	go run ./bench -compare parent.json change.json
//
// bench/run.sh does the same with the Go caches kept inside the checkout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"lightator"
)

// Run shape: rounds per workload, each on a fresh server after a
// discarded warm-up and after setupProbes servers that only set up, and
// the fixed inputs checked per workload (the traced run replays more of
// them, for per-layer quantiles).
const (
	rounds       = 3
	setupProbes  = 5
	warmup       = time.Second
	tracedInputs = 64
	probeInputs  = 8
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all, round-robin")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 30, fmt.Sprintf("measured seconds per workload, split over %d rounds", rounds))
	trace := fs.Int("trace", 1, "1: add the traced per-layer run and end with its metrics; 0: end with the end-to-end metrics")
	out := fs.String("out", "", "append the run's records to this JSON results file")
	spans := fs.String("spans", "", "write the traced run's spans to this JSON file")
	cmp := fs.Bool("compare", false, "compare two results files: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *cmp {
		return compareMain(root, fs.Args(), stdout, stderr)
	}
	var sp spec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &sp); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	names := workloadNames
	if *only != "" {
		if !slices.Contains(workloadNames, *only) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *only, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*only}
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1, -seconds a positive number, and no other arguments")
		return 2
	}
	o := options{
		seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), rounds: rounds, warmup: warmup,
		traced: *trace == 1, inputs: probeInputs, rows: 256, cols: 256,
	}
	if o.traced {
		o.inputs = tracedInputs
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	bin, err := buildServer(ctx, root, dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, describe(o, names))
	recs, recorded, err := runSet(ctx, processLauncher(bin), names, o)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, r := range recs {
		r.print(stdout)
	}
	if *out != "" {
		if err := appendRuns(*out, recs); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *spans != "" {
		if err := writeJSON(*spans, recorded); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	list := sp.EndToEnd
	if o.traced {
		list = sp.PerLayer
	}
	line, ok, err := resultLine(recs, list)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

// findRoot returns the working directory, which must be the repository
// root: it holds BENCHMARK.json and the server's source.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(wd, "BENCHMARK.json")); err != nil {
		return "", errors.New("bench: no BENCHMARK.json in the working directory; run from the repository root")
	}
	return wd, nil
}

// runSet runs the named workloads for o.rounds rounds each, visiting the
// workloads round-robin so that a slow period on the host hits all of
// them alike. Every round gets a fresh server; the last round of each
// workload also sends its fixed inputs. A traced set then times the
// facade-level layers with the servers stopped.
func runSet(ctx context.Context, launch launcher, names []string, o options) ([]record, []span, error) {
	on, err := newStack(o.rows, o.cols, false)
	if err != nil {
		return nil, nil, err
	}
	var off *stack
	var acc *lightator.Accelerator
	if o.traced {
		if off, err = newStack(o.rows, o.cols, true); err != nil {
			return nil, nil, err
		}
		cfg := lightator.DefaultConfig()
		cfg.SensorRows, cfg.SensorCols = o.rows, o.cols
		if acc, err = lightator.New(cfg); err != nil {
			return nil, nil, err
		}
	}
	ws := make([]*workload, len(names))
	for i, name := range names {
		if ws[i], err = newWorkload(name, o, &replayer{on: on, off: off, rec: newRecorder()}); err != nil {
			return nil, nil, err
		}
	}
	for r := 0; r < o.rounds; r++ {
		for _, w := range ws {
			if err := w.runRound(ctx, launch, r, r == o.rounds-1); err != nil {
				return nil, nil, fmt.Errorf("bench: %s round %d: %w", w.name, r, err)
			}
		}
	}
	var recs []record
	var spans []span
	for _, w := range ws {
		if o.traced {
			if err := w.facadeLayers(ctx, acc); err != nil {
				return nil, nil, fmt.Errorf("bench: %s: %w", w.name, err)
			}
		}
		rec, err := w.record()
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, rec)
		spans = append(spans, w.rp.rec.spans...)
	}
	return recs, spans, nil
}
