// Command lightator-bench regenerates the paper's tables and figures
// (internal/experiments maps each experiment to its source; docs/DESIGN.md
// has the system inventory), checks the paper's claims and runs a
// fault-plan chaos smoke. Speed is measured elsewhere: bench/ is the
// end-to-end benchmark of lightator-serve, and `go test -bench` times
// the library's hot paths (docs/PERF.md).
//
// Usage:
//
//	lightator-bench -exp all -profile quick
//	lightator-bench -exp fig8
//	lightator-bench -exp table1 -profile full
//	lightator-bench -paper                  # continuously-verified paper claims (exit 1 on drift)
//	lightator-bench -chaos -workers 2       # fault-plan smoke: detection + recovery (exit 1 on a miss)
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"lightator"
	"lightator/internal/experiments"
)

// runChaosSmoke is the -chaos mode: a short fault-plan run through the
// capture+CA+kernel pipeline (the CI chaos smoke step). It verifies the
// fault-tolerance machinery end to end on real serving paths — every
// frame completes, ABFT detects the persistent faults within the run,
// and the recovery ladder resolves each one (recalibration or retirement
// to the digital fallback; unrecovered checks fail the smoke) — and
// prints the per-component health table.
func runChaosSmoke(workers int, seed int64) error {
	cfg := lightator.DefaultConfig()
	cfg.SensorRows, cfg.SensorCols = 64, 64
	cfg.Seed = seed
	cfg.FaultPlan = &lightator.FaultPlan{Name: "bench-chaos", Faults: []lightator.Fault{
		// Absorbable drift on the CA bank: recalibration tier.
		{Kind: "drift_coeff", Target: "ca", Row: 0, Col: 1, Value: 0.03},
		// Hard-stuck kernel coefficient: retire + digital fallback tier.
		{Kind: "stuck_coeff", Target: "kernel:edge", Row: 0, Col: 0, Value: 0.95},
		// Windowed readout spike on every bank: bounded-retry tier.
		{Kind: "bit_flip", Target: "*", Row: 0, Value: 0.4,
			Window: lightator.FaultWindow{Period: 8, Duty: 1, Salt: 9}},
	}}
	acc, err := lightator.New(cfg)
	if err != nil {
		return err
	}
	p, err := acc.NewPipeline(lightator.PipelineOptions{Workers: workers, Kernel: "edge"})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	scenes := make([]*lightator.Image, 16)
	for i := range scenes {
		s := lightator.NewImage(cfg.SensorRows, cfg.SensorCols, 3)
		for j := range s.Pix {
			s.Pix[j] = rng.Float64()
		}
		scenes[i] = s
	}
	results, stats, err := p.Run(scenes)
	if err != nil {
		return err
	}
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("frame %d failed: %w", i, r.Err)
		}
	}
	fmt.Printf("== chaos smoke (%d frames, plan %s) ==\n", len(scenes), cfg.FaultPlan.Name)
	fmt.Printf("%-16s %8s %10s %8s %8s %8s %11s\n",
		"component", "checks", "detections", "retried", "recals", "retired", "unrecovered")
	var detections, unrecovered int64
	for _, h := range acc.Health() {
		fmt.Printf("%-16s %8d %10d %8d %8d %8d %11d\n",
			h.Label, h.Checks, h.Detections, h.RetrySuccesses, h.Recalibrations, h.RetiredRows, h.Unrecovered)
		detections += h.Detections
		unrecovered += h.Unrecovered
	}
	fmt.Printf("throughput under chaos: %.1f frames/sec, degraded=%v\n", stats.Report().FPS, acc.Degraded())
	if detections == 0 {
		return fmt.Errorf("no ABFT detections — the plan never fired")
	}
	// Unrecovered checks are a legitimate terminal tier (the response is
	// flagged degraded, never silently corrupted), but they should be the
	// rare triple-coincidence tail, not the norm.
	if unrecovered*10 > detections {
		return fmt.Errorf("%d of %d detections left unrecovered — ladder not converging", unrecovered, detections)
	}
	for _, want := range []struct {
		label string
		check func(h lightator.ComponentHealth) bool
		desc  string
	}{
		{"ca", func(h lightator.ComponentHealth) bool { return h.Recalibrations > 0 && h.RetiredRows == 0 },
			"absorbable drift must recalibrate, not retire"},
		{"kernel:edge", func(h lightator.ComponentHealth) bool { return h.RetiredRows > 0 },
			"hard-stuck coefficient must retire its row"},
	} {
		ok := false
		for _, h := range acc.Health() {
			if h.Label == want.label && want.check(h) {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("%s: %s", want.label, want.desc)
		}
	}
	return nil
}

// rendered adapts an experiment's (result, error) return to its text.
func rendered[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// fail reports err under name and exits 1.
func fail(name string, err error) {
	fmt.Fprintf(os.Stderr, "lightator-bench: %s: %v\n", name, err)
	os.Exit(1)
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig8, fig9, fig10, table1, ablations, all")
	profile := flag.String("profile", "quick", "training budget for accuracy columns: smoke, quick, full")
	seed := flag.Int64("seed", 7, "experiment seed")
	workers := flag.Int("workers", 8, "worker goroutines (training, and the -chaos pipeline)")
	paper := flag.Bool("paper", false, "regenerate the continuously-verified paper-claims table (training-free; markdown to stdout, exit 1 on drift)")
	chaos := flag.Bool("chaos", false, "run a short fault-plan chaos smoke through the serving pipeline and verify detection + recovery (exit 1 on any miss; docs/FAULTS.md)")
	flag.Parse()

	if *paper {
		res, err := experiments.PaperClaims()
		if err != nil {
			fail("paper claims", err)
		}
		fmt.Print(res.Render())
		if len(res.Failing()) > 0 {
			os.Exit(1)
		}
		return
	}

	if *chaos {
		if err := runChaosSmoke(*workers, *seed); err != nil {
			fail("chaos", err)
		}
		return
	}

	var prof experiments.Profile
	switch *profile {
	case "smoke":
		prof = experiments.Smoke
	case "quick":
		prof = experiments.Quick
	case "full":
		prof = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "lightator-bench: unknown profile %q\n", *profile)
		os.Exit(1)
	}
	opt := experiments.Options{Profile: prof, Seed: *seed, Workers: *workers}

	// Each entry is one printed result; exp is the -exp value that selects it.
	known := false
	for _, e := range []struct {
		exp, name string
		run       func() (string, error)
	}{
		{"fig8", "fig8", func() (string, error) { return rendered(experiments.Fig8()) }},
		{"fig9", "fig9", func() (string, error) { return rendered(experiments.Fig9()) }},
		{"fig10", "fig10", func() (string, error) { return rendered(experiments.Fig10()) }},
		{"table1", "table1", func() (string, error) {
			fmt.Printf("(training accuracy columns at %q profile; this is the slow part)\n", *profile)
			return rendered(experiments.Table1(opt))
		}},
		{"ablations", "ablations", experiments.RenderAllCheapAblations},
		{"ablations", "ablation-fidelity", func() (string, error) { return rendered(experiments.AblationFidelity(opt)) }},
	} {
		if *exp != "all" && *exp != e.exp {
			continue
		}
		known = true
		out, err := e.run()
		if err != nil {
			fail(e.name, err)
		}
		fmt.Println(out)
		fmt.Println()
	}
	if !known {
		fmt.Fprintf(os.Stderr, "lightator-bench: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
}
