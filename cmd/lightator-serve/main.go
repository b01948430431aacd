// Command lightator-serve exposes a Lightator accelerator over HTTP/JSON:
// /v1/capture, /v1/compress, /v1/process (compressed-domain kernels;
// GET /v1/kernels lists the registry), /v1/matvec and /v1/simulate,
// backed by a dynamic micro-batcher over the concurrent frame pipeline,
// plus /v1/session streaming video sessions with temporal delta reuse,
// with /metrics and /healthz for operations. See docs/SERVER.md and
// docs/API.md.
//
// Usage:
//
//	lightator-serve -addr :8080
//	lightator-serve -fidelity physical-noisy -batch 16 -batch-delay 5ms
//	lightator-serve -rows 64 -cols 64 -capool 4 -queue 256
//	lightator-serve -max-sessions 32 -session-idle 30s -session-window 4
//	lightator-serve -fault-plan plan.json -reject-degraded -request-timeout 2s
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, new
// work is rejected with 503, and in-flight micro-batches drain before the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lightator"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	fidelity := flag.String("fidelity", "physical", "analog fidelity: ideal, physical, physical-noisy")
	wbits := flag.Int("wbits", 4, "weight precision bits")
	abits := flag.Int("abits", 4, "activation precision bits")
	rows := flag.Int("rows", 0, "sensor rows (0 = paper default 256)")
	cols := flag.Int("cols", 0, "sensor cols (0 = paper default 256)")
	capool := flag.Int("capool", 2, "compressive acquisition pooling factor (0 disables /v1/compress)")
	seed := flag.Int64("seed", 0, "base noise seed (0 = config default)")
	workers := flag.Int("workers", 0, "pipeline workers per batch (0 = NumCPU)")
	batch := flag.Int("batch", 8, "micro-batch flush size")
	batchDelay := flag.Duration("batch-delay", 2*time.Millisecond, "micro-batch flush deadline")
	queue := flag.Int("queue", 64, "admission queue depth per batched endpoint (full = 429)")
	maxBatches := flag.Int("max-batches", 2, "concurrent in-flight pipeline batches per endpoint")
	cache := flag.Int("cache", 256, "response cache entries (negative disables)")
	traceEntries := flag.Int("trace-entries", 256, "GET /debug/traces ring capacity (negative disables retention)")
	debug := flag.Bool("debug", false, "mount the debug mux: /debug/pprof/ and /debug/runtime")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	maxSessions := flag.Int("max-sessions", 0, "concurrently open streaming sessions (0 = default 64)")
	sessionIdle := flag.Duration("session-idle", 0, "idle expiry for streaming sessions (0 = default 60s, negative disables)")
	sessionWindow := flag.Int("session-window", 0, "default in-flight frame window per session stream (0 = default 8)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline, 504 on expiry (0 disables)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 0, "HTTP header read deadline (0 = default 10s, negative disables)")
	idleTimeout := flag.Duration("idle-timeout", 0, "HTTP keep-alive idle deadline (0 = default 120s, negative disables)")
	rejectDegraded := flag.Bool("reject-degraded", false, "answer 503 degraded_unavailable instead of degraded-flagged 200s")
	shedCacheMiss := flag.Float64("shed-cache-miss", 0, "queue occupancy in (0,1] shedding uncached compute (0 = default 0.75, negative disables)")
	shedNonSession := flag.Float64("shed-non-session", 0, "queue occupancy in (0,1] shedding all non-session compute (0 = default 0.90, negative disables)")
	shedAll := flag.Float64("shed-all", 0, "queue occupancy in (0,1] shedding everything incl. sessions (0 = default 0.98, negative disables)")
	faultPlanPath := flag.String("fault-plan", "", "JSON fault-injection plan activating chaos mode (see docs/FAULTS.md)")
	flag.Parse()

	cfg := lightator.DefaultConfig()
	cfg.Precision.WBits = *wbits
	cfg.Precision.ABits = *abits
	cfg.CAPool = *capool
	if *rows > 0 {
		cfg.SensorRows = *rows
	}
	if *cols > 0 {
		cfg.SensorCols = *cols
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	switch *fidelity {
	case "ideal":
		cfg.Fidelity = lightator.Ideal
	case "physical":
		cfg.Fidelity = lightator.Physical
	case "physical-noisy":
		cfg.Fidelity = lightator.PhysicalNoisy
	default:
		fmt.Fprintf(os.Stderr, "lightator-serve: unknown fidelity %q\n", *fidelity)
		os.Exit(1)
	}
	if *faultPlanPath != "" {
		data, err := os.ReadFile(*faultPlanPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lightator-serve: fault plan: %v\n", err)
			os.Exit(1)
		}
		plan, err := lightator.ParseFaultPlan(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lightator-serve: fault plan %s: %v\n", *faultPlanPath, err)
			os.Exit(1)
		}
		cfg.FaultPlan = plan
	}

	acc, err := lightator.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightator-serve: %v\n", err)
		os.Exit(1)
	}
	srv, err := acc.NewServer(lightator.ServeOptions{
		Workers:      *workers,
		BatchSize:    *batch,
		BatchDelay:   *batchDelay,
		Queue:        *queue,
		MaxBatches:   *maxBatches,
		CacheEntries: *cache,
		TraceEntries: *traceEntries,
		Debug:        *debug,

		MaxSessions:        *maxSessions,
		SessionIdleTimeout: *sessionIdle,
		SessionWindow:      *sessionWindow,

		RequestTimeout:    *requestTimeout,
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
		RejectDegraded:    *rejectDegraded,
		ShedCacheMiss:     *shedCacheMiss,
		ShedNonSession:    *shedNonSession,
		ShedAll:           *shedAll,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightator-serve: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()
	chaos := ""
	if cfg.FaultPlan != nil {
		chaos = fmt.Sprintf(", CHAOS MODE (%d faults, cache off)", len(cfg.FaultPlan.Faults))
	}
	fmt.Printf("lightator-serve: %s sensor %dx%d %s, micro-batch %d@%v, %d compressed-domain kernels%s, listening on %s\n",
		cfg.Fidelity, cfg.SensorRows, cfg.SensorCols,
		cfg.Precision.Name(), *batch, *batchDelay, len(acc.Kernels()), chaos, *addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "lightator-serve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Println("lightator-serve: shutting down, draining in-flight work...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "lightator-serve: shutdown: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("lightator-serve: drained cleanly")
	}
}
