package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"lightator/internal/fault"
	"lightator/internal/pipeline"
	"lightator/internal/session"
)

// flushTrigger labels why a micro-batch left the collector.
type flushTrigger string

const (
	flushSize     flushTrigger = "size"     // batch filled to BatchSize
	flushDeadline flushTrigger = "deadline" // BatchDelay expired
	flushDrain    flushTrigger = "drain"    // server shutdown flushed it
)

// epCounters accumulates one endpoint's request counters. Latency is only
// observed for requests that produced a response (2xx or 4xx/5xx with a
// body), not for rejected admissions.
type epCounters struct {
	requests  int64
	errors    int64
	rejected  int64
	cacheHits int64
	cacheMiss int64
	lat       pipeline.LatencyHist
}

// metrics is the server-wide counter set. One mutex is plenty: every
// update is a few integer adds, far off the request hot path's decode and
// pipeline costs.
type metrics struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*epCounters
	flushes   map[flushTrigger]int64
	frames    int64 // frames that went through a micro-batch
	expired   int64 // of those, frames dropped at flush, their request over
	maxBatch  int
	// sheds counts tiered-shedder drops by tier; deadlines counts 504s
	// from the per-request deadline; degraded counts responses served
	// with the degraded flag set.
	sheds     map[string]int64
	deadlines int64
	degraded  int64
}

func newMetrics() *metrics {
	return &metrics{
		start:     time.Now(),
		endpoints: make(map[string]*epCounters),
		flushes:   make(map[flushTrigger]int64),
		sheds:     make(map[string]int64),
	}
}

func (m *metrics) ep(endpoint string) *epCounters {
	c, ok := m.endpoints[endpoint]
	if !ok {
		c = &epCounters{}
		m.endpoints[endpoint] = c
	}
	return c
}

// observe records one completed request.
func (m *metrics) observe(endpoint string, d time.Duration, isErr bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.ep(endpoint)
	c.requests++
	if isErr {
		c.errors++
	}
	c.lat.Observe(d)
}

// reject records an admission-control rejection (429/503).
func (m *metrics) reject(endpoint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.ep(endpoint)
	c.requests++
	c.rejected++
}

// cache records a cache lookup outcome.
func (m *metrics) cache(endpoint string, hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.ep(endpoint)
	if hit {
		c.cacheHits++
	} else {
		c.cacheMiss++
	}
}

// shed records one tiered-shedder drop.
func (m *metrics) shed(tier string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sheds[tier]++
}

// deadline records one per-request deadline expiry (504).
func (m *metrics) deadline() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deadlines++
}

// degradedResp records one response served with the degraded flag set.
func (m *metrics) degradedResp() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.degraded++
}

// flush records one micro-batch dispatch of n frames, expired of which
// were dropped because their request had already ended.
func (m *metrics) flush(n, expired int, trigger flushTrigger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushes[trigger]++
	m.frames += int64(n)
	m.expired += int64(expired)
	if n > m.maxBatch {
		m.maxBatch = n
	}
}

// uptime reports the time since the server's construction.
func (m *metrics) uptime() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Since(m.start)
}

// EndpointSnapshot is one endpoint's counters at snapshot time.
type EndpointSnapshot struct {
	Requests    int64                `json:"requests"`
	Errors      int64                `json:"errors"`
	Rejected    int64                `json:"rejected"`
	CacheHits   int64                `json:"cache_hits"`
	CacheMisses int64                `json:"cache_misses"`
	Latency     pipeline.StageReport `json:"latency"`
}

// BatcherSnapshot summarises micro-batcher activity.
type BatcherSnapshot struct {
	SizeFlushes     int64 `json:"size_flushes"`
	DeadlineFlushes int64 `json:"deadline_flushes"`
	DrainFlushes    int64 `json:"drain_flushes"`
	BatchedFrames   int64 `json:"batched_frames"`
	MaxBatch        int   `json:"max_batch"`
	// ExpiredFrames counts batched frames dropped at flush, never run,
	// because their request had already ended.
	ExpiredFrames int64 `json:"expired_frames"`
}

// QueueSnapshot gauges one batched endpoint's admission state at
// snapshot time: queued-but-uncollected frames, the collector's
// accumulating (parked) batch, and pipeline batches in flight.
type QueueSnapshot struct {
	Depth           int `json:"depth"`
	Occupancy       int `json:"occupancy"`
	InflightBatches int `json:"inflight_batches"`
}

// EnergyGauge is one pipeline series' modeled per-request energy: the
// joules one frame through that pipeline costs under the paper's
// component model, and the KFPS/W a stream of such frames would
// sustain. Fixed at construction (every frame of a pipeline does
// identical modeled analog work).
type EnergyGauge struct {
	EnergyJPerRequest float64 `json:"energy_j_per_request"`
	ModeledKFPSPerW   float64 `json:"modeled_kfps_per_w"`
}

// MetricsSnapshot is the full machine-readable state of a running server,
// served as JSON at /metrics?format=json.
type MetricsSnapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Inflight      int64                       `json:"inflight"`
	Draining      bool                        `json:"draining"`
	CacheEntries  int                         `json:"cache_entries"`
	CacheCapacity int                         `json:"cache_capacity"`
	CacheBytes    int                         `json:"cache_bytes"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Batcher       BatcherSnapshot             `json:"batcher"`
	// Queues gauges each batched endpoint's admission state, keyed by
	// endpoint (kernel/model series as "/v1/process:<kernel>" etc.).
	Queues map[string]QueueSnapshot `json:"queues,omitempty"`
	// Energy holds each pipeline series' modeled per-request energy,
	// keyed like the pipeline stats below (capture, compress,
	// process:<kernel>, infer:<model>).
	Energy map[string]EnergyGauge `json:"energy,omitempty"`
	// Capture and Compress are the cumulative pipeline stats behind the
	// batched endpoints (frames, FPS, per-stage latency histograms).
	Capture  pipeline.StatsReport `json:"capture_pipeline"`
	Compress pipeline.StatsReport `json:"compress_pipeline"`
	// Process holds the cumulative pipeline stats behind /v1/process,
	// keyed by kernel name (absent when kernels are disabled).
	Process map[string]pipeline.StatsReport `json:"process_pipelines,omitempty"`
	// Infer holds the cumulative pipeline stats behind /v1/infer scene
	// requests, keyed by model name (absent when inference is disabled).
	Infer map[string]pipeline.StatsReport `json:"infer_pipelines,omitempty"`
	// Sessions aggregates the streaming-session registry: open/lifetime
	// counters plus per-open-session reuse accounting (absent when
	// sessions are disabled).
	Sessions *session.ManagerStats `json:"sessions,omitempty"`
	// Sheds counts tiered-shedder drops by tier (cache_miss, non_session,
	// all).
	Sheds map[string]int64 `json:"sheds"`
	// DeadlineTimeouts counts requests that outlived the per-request
	// deadline (504 deadline_exceeded).
	DeadlineTimeouts int64 `json:"deadline_timeouts"`
	// DegradedResponses counts responses served with the degraded flag
	// set; Degraded is the live gauge (any component degraded now).
	DegradedResponses int64 `json:"degraded_responses"`
	Degraded          bool  `json:"degraded"`
	// Health is the per-component fault-tolerance state (ABFT checks,
	// detections, ladder outcomes), sorted by component label.
	Health []fault.HealthSnapshot `json:"health,omitempty"`
}

// snapshot captures the counters; pipeline stats and gauges are filled in
// by the server, which owns them.
func (m *metrics) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MetricsSnapshot{
		UptimeSeconds:     time.Since(m.start).Seconds(),
		Endpoints:         make(map[string]EndpointSnapshot, len(m.endpoints)),
		Sheds:             make(map[string]int64, len(m.sheds)),
		DeadlineTimeouts:  m.deadlines,
		DegradedResponses: m.degraded,
		Batcher: BatcherSnapshot{
			SizeFlushes:     m.flushes[flushSize],
			DeadlineFlushes: m.flushes[flushDeadline],
			DrainFlushes:    m.flushes[flushDrain],
			BatchedFrames:   m.frames,
			MaxBatch:        m.maxBatch,
			ExpiredFrames:   m.expired,
		},
	}
	for tier, n := range m.sheds {
		snap.Sheds[tier] = n
	}
	for name, c := range m.endpoints {
		snap.Endpoints[name] = EndpointSnapshot{
			Requests:    c.requests,
			Errors:      c.errors,
			Rejected:    c.rejected,
			CacheHits:   c.cacheHits,
			CacheMisses: c.cacheMiss,
			Latency:     c.lat.Report(),
		}
	}
	return snap
}

// renderProm renders the snapshot in Prometheus text exposition format.
func renderProm(snap MetricsSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lightator_uptime_seconds %g\n", snap.UptimeSeconds)
	fmt.Fprintf(&b, "lightator_inflight_requests %d\n", snap.Inflight)
	fmt.Fprintf(&b, "lightator_cache_entries %d\n", snap.CacheEntries)
	fmt.Fprintf(&b, "lightator_cache_capacity %d\n", snap.CacheCapacity)
	fmt.Fprintf(&b, "lightator_cache_bytes %d\n", snap.CacheBytes)
	queueNames := make([]string, 0, len(snap.Queues))
	for name := range snap.Queues {
		queueNames = append(queueNames, name)
	}
	sort.Strings(queueNames)
	for _, name := range queueNames {
		q := snap.Queues[name]
		fmt.Fprintf(&b, "lightator_queue_depth{endpoint=%q} %d\n", name, q.Depth)
		fmt.Fprintf(&b, "lightator_batch_occupancy{endpoint=%q} %d\n", name, q.Occupancy)
		fmt.Fprintf(&b, "lightator_inflight_batches{endpoint=%q} %d\n", name, q.InflightBatches)
	}
	names := make([]string, 0, len(snap.Endpoints))
	for name := range snap.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := snap.Endpoints[name]
		fmt.Fprintf(&b, "lightator_requests_total{endpoint=%q} %d\n", name, ep.Requests)
		fmt.Fprintf(&b, "lightator_request_errors_total{endpoint=%q} %d\n", name, ep.Errors)
		fmt.Fprintf(&b, "lightator_rejected_total{endpoint=%q} %d\n", name, ep.Rejected)
		fmt.Fprintf(&b, "lightator_cache_hits_total{endpoint=%q} %d\n", name, ep.CacheHits)
		fmt.Fprintf(&b, "lightator_cache_misses_total{endpoint=%q} %d\n", name, ep.CacheMisses)
		if ep.Latency.Count > 0 {
			fmt.Fprintf(&b, "lightator_request_latency_seconds{endpoint=%q,quantile=\"0.5\"} %g\n",
				name, float64(ep.Latency.P50NS)/1e9)
			fmt.Fprintf(&b, "lightator_request_latency_seconds{endpoint=%q,quantile=\"0.99\"} %g\n",
				name, float64(ep.Latency.P99NS)/1e9)
		}
	}
	// Fixed slice order: scrapes must be diffable, so no map iteration.
	for _, fl := range []struct {
		trigger flushTrigger
		n       int64
	}{
		{flushSize, snap.Batcher.SizeFlushes},
		{flushDeadline, snap.Batcher.DeadlineFlushes},
		{flushDrain, snap.Batcher.DrainFlushes},
	} {
		fmt.Fprintf(&b, "lightator_batch_flushes_total{trigger=%q} %d\n", fl.trigger, fl.n)
	}
	fmt.Fprintf(&b, "lightator_batched_frames_total %d\n", snap.Batcher.BatchedFrames)
	fmt.Fprintf(&b, "lightator_batch_max_size %d\n", snap.Batcher.MaxBatch)
	fmt.Fprintf(&b, "lightator_batch_expired_frames_total %d\n", snap.Batcher.ExpiredFrames)
	pipes := []struct {
		name string
		rep  pipeline.StatsReport
	}{
		{"capture", snap.Capture},
		{"compress", snap.Compress},
	}
	// Kernel and model pipelines append in sorted name order, again for
	// diffable scrapes.
	kernNames := make([]string, 0, len(snap.Process))
	for name := range snap.Process {
		kernNames = append(kernNames, name)
	}
	sort.Strings(kernNames)
	for _, name := range kernNames {
		pipes = append(pipes, struct {
			name string
			rep  pipeline.StatsReport
		}{"process:" + name, snap.Process[name]})
	}
	modelNames := make([]string, 0, len(snap.Infer))
	for name := range snap.Infer {
		modelNames = append(modelNames, name)
	}
	sort.Strings(modelNames)
	for _, name := range modelNames {
		pipes = append(pipes, struct {
			name string
			rep  pipeline.StatsReport
		}{"infer:" + name, snap.Infer[name]})
	}
	for _, p := range pipes {
		fmt.Fprintf(&b, "lightator_pipeline_frames_total{pipeline=%q} %d\n", p.name, p.rep.Frames)
		fmt.Fprintf(&b, "lightator_pipeline_fps{pipeline=%q} %g\n", p.name, p.rep.FPS)
	}
	// Energy gauges per pipeline series, sorted for diffable scrapes.
	energyNames := make([]string, 0, len(snap.Energy))
	for name := range snap.Energy {
		energyNames = append(energyNames, name)
	}
	sort.Strings(energyNames)
	for _, name := range energyNames {
		e := snap.Energy[name]
		fmt.Fprintf(&b, "lightator_energy_j_per_request{pipeline=%q} %g\n", name, e.EnergyJPerRequest)
		fmt.Fprintf(&b, "lightator_modeled_kfps_per_w{pipeline=%q} %g\n", name, e.ModeledKFPSPerW)
	}
	// Session series are always emitted (zero-valued when no sessions
	// have existed, absent only when the subsystem is disabled — and even
	// then a zero block keeps scrapes shape-stable).
	var ss session.ManagerStats
	if snap.Sessions != nil {
		ss = *snap.Sessions
	}
	fmt.Fprintf(&b, "lightator_sessions_open %d\n", ss.Open)
	fmt.Fprintf(&b, "lightator_sessions_opened_total %d\n", ss.Opened)
	fmt.Fprintf(&b, "lightator_sessions_closed_total %d\n", ss.Closed)
	fmt.Fprintf(&b, "lightator_sessions_expired_total %d\n", ss.Expired)
	fmt.Fprintf(&b, "lightator_session_frames_total %d\n", ss.Frames)
	fmt.Fprintf(&b, "lightator_session_blocks_total %d\n", ss.BlocksTotal)
	fmt.Fprintf(&b, "lightator_session_blocks_reused_total %d\n", ss.BlocksReused)
	// Overload and degradation series. Tiers render in fixed severity
	// order and every series is emitted unconditionally (zero-valued on a
	// healthy idle server) so scrapes stay shape-stable and the
	// metricscheck gate can verify the catalogue against a live server.
	for _, tier := range []string{"cache_miss", "non_session", "all"} {
		fmt.Fprintf(&b, "lightator_shed_total{tier=%q} %d\n", tier, snap.Sheds[tier])
	}
	fmt.Fprintf(&b, "lightator_deadline_timeouts_total %d\n", snap.DeadlineTimeouts)
	fmt.Fprintf(&b, "lightator_degraded_responses_total %d\n", snap.DegradedResponses)
	degraded := 0
	if snap.Degraded {
		degraded = 1
	}
	fmt.Fprintf(&b, "lightator_degraded %d\n", degraded)
	// Per-component fault-tolerance counters (snapshot is label-sorted).
	// Components register at construction, so a fault-free server still
	// emits its full zero-valued component set.
	for _, h := range snap.Health {
		fmt.Fprintf(&b, "lightator_abft_checks_total{component=%q} %d\n", h.Label, h.Checks)
		fmt.Fprintf(&b, "lightator_fault_detections_total{component=%q} %d\n", h.Label, h.Detections)
		fmt.Fprintf(&b, "lightator_fault_retry_successes_total{component=%q} %d\n", h.Label, h.RetrySuccesses)
		fmt.Fprintf(&b, "lightator_fault_recalibrations_total{component=%q} %d\n", h.Label, h.Recalibrations)
		fmt.Fprintf(&b, "lightator_fault_retired_rows{component=%q} %d\n", h.Label, h.RetiredRows)
		fmt.Fprintf(&b, "lightator_fault_unrecovered_total{component=%q} %d\n", h.Label, h.Unrecovered)
	}
	return b.String()
}
