// End-to-end tests of the observability layer: per-request trace
// headers, the GET /debug/traces ring, the energy/queue/cache gauges in
// /metrics, and the opt-in debug mux. See docs/OBSERVABILITY.md.
package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lightator"
	"lightator/internal/server"
)

// getBody GETs a URL and returns status + body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// postRaw posts v and returns the full response (caller closes Body).
func postRaw(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTraceHeadersAndDebugTraces: a served /v1/compress request carries
// the structured trace headers, and GET /debug/traces returns the
// per-stage spans with modeled op counts and priced energy.
func TestTraceHeadersAndDebugTraces(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, CacheEntries: -1})

	scene := testScene(42, 32, 32)
	resp := postRaw(t, ts.URL+"/v1/compress", lightator.NewCompressRequest(lightator.EncodeImage(scene), nil))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Lightator-Trace-Id")
	if len(id) != 16 {
		t.Errorf("X-Lightator-Trace-Id = %q, want 16 hex digits", id)
	}
	ops := resp.Header.Get("X-Lightator-Ops")
	if !strings.Contains(ops, "comparator_fires=15360") { // 32*32*15
		t.Errorf("X-Lightator-Ops = %q, want capture comparator fires 15360", ops)
	}
	if !strings.Contains(ops, "mr_coeff_holds=") {
		t.Errorf("X-Lightator-Ops = %q missing mr_coeff_holds", ops)
	}
	if resp.Header.Get("X-Lightator-Energy-J") == "" {
		t.Error("X-Lightator-Energy-J header missing")
	}
	stageNS := resp.Header.Get("X-Lightator-Stage-Ns")
	if !strings.Contains(stageNS, "capture=") || !strings.Contains(stageNS, "compress=") {
		t.Errorf("X-Lightator-Stage-Ns = %q, want capture= and compress= entries", stageNS)
	}
	io.Copy(io.Discard, resp.Body)

	status, body := getBody(t, ts.URL+"/debug/traces")
	if status != http.StatusOK {
		t.Fatalf("/debug/traces status %d", status)
	}
	var tr server.TracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decode traces: %v (%s)", err, body)
	}
	if tr.Total < 1 || len(tr.Traces) < 1 {
		t.Fatalf("traces total=%d held=%d, want >= 1", tr.Total, len(tr.Traces))
	}
	last := tr.Traces[len(tr.Traces)-1]
	if last.ID != id {
		t.Errorf("newest trace id %q != response header id %q", last.ID, id)
	}
	if last.Endpoint != "/v1/compress" {
		t.Errorf("endpoint %q, want /v1/compress", last.Endpoint)
	}
	if last.EnergyJ <= 0 || last.ModeledKFPSPerW <= 0 {
		t.Errorf("energy %g / kfps-per-w %g, want positive", last.EnergyJ, last.ModeledKFPSPerW)
	}
	stages := map[string]bool{}
	for _, sp := range last.Spans {
		stages[sp.Stage] = true
	}
	if !stages["capture"] || !stages["compress"] {
		t.Errorf("spans %v, want capture and compress stages", stages)
	}
	for _, sp := range last.Spans {
		if sp.Stage == "capture" && sp.Ops.ComparatorFires != 32*32*15 {
			t.Errorf("capture span fires %d, want %d", sp.Ops.ComparatorFires, 32*32*15)
		}
		if sp.Stage == "compress" && (sp.Ops.MVMRows <= 0 || sp.Ops.DACSettles != 0) {
			t.Errorf("compress span ops %+v: CA rows must be positive with zero DAC settles", sp.Ops)
		}
	}

	// ?limit keeps the newest N; a bad limit is a 400.
	status, body = getBody(t, ts.URL+"/debug/traces?limit=1")
	if status != http.StatusOK {
		t.Fatalf("limit=1 status %d", status)
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 1 {
		t.Errorf("limit=1 returned %d traces", len(tr.Traces))
	}
	if status, _ = getBody(t, ts.URL+"/debug/traces?limit=bogus"); status != http.StatusBadRequest {
		t.Errorf("bad limit status %d, want 400", status)
	}
}

// TestTraceCacheHit: a cache-served repeat request is flagged by the
// X-Lightator-Cache header and recorded as a span-less cache-hit trace.
// The cache admits a body on its key's second sighting, so the first
// repeat still misses and the second hits.
func TestTraceCacheHit(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, CacheEntries: 8})

	req := lightator.NewCaptureRequest(lightator.EncodeImage(testScene(7, 32, 32)), nil)
	// Requests 1 and 2 miss, request 3 hits, all with one body.
	_, hdrs := postRepeats(t, ts.URL+"/v1/capture", req)
	if hdrs[2].Get("X-Lightator-Trace-Id") == hdrs[1].Get("X-Lightator-Trace-Id") {
		t.Error("cache hit reused the miss's trace id")
	}

	_, body := getBody(t, ts.URL+"/debug/traces")
	var tr server.TracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	last := tr.Traces[len(tr.Traces)-1]
	if !last.CacheHit || len(last.Spans) != 0 || last.EnergyJ != 0 {
		t.Errorf("cache-hit trace %+v: want CacheHit, no spans, zero energy", last)
	}
}

// TestMetricsGauges: /metrics exports the observability gauges — cache
// size/capacity, per-endpoint queue state, and the two energy series
// per pipeline — in Prometheus text form and in the JSON snapshot.
func TestMetricsGauges(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, CacheEntries: 8})

	// One request so counters are warm.
	resp := postRaw(t, ts.URL+"/v1/compress", lightator.NewCompressRequest(lightator.EncodeImage(testScene(3, 32, 32)), nil))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	status, body := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	text := string(body)
	for _, series := range []string{
		"lightator_uptime_seconds",
		"lightator_cache_capacity 8",
		"lightator_cache_bytes",
		`lightator_queue_depth{endpoint="/v1/capture"}`,
		`lightator_batch_occupancy{endpoint="/v1/compress"}`,
		`lightator_inflight_batches{endpoint="/v1/compress"}`,
		`lightator_energy_j_per_request{pipeline="capture"}`,
		`lightator_energy_j_per_request{pipeline="compress"}`,
		`lightator_modeled_kfps_per_w{pipeline="compress"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	// Kernel and model series exist for every registered name.
	for _, k := range acc.Kernels() {
		if !strings.Contains(text, `lightator_energy_j_per_request{pipeline="process:`+k+`"}`) {
			t.Errorf("/metrics missing energy series for kernel %s", k)
		}
	}
	for _, m := range acc.Models() {
		if !strings.Contains(text, `lightator_modeled_kfps_per_w{pipeline="infer:`+m+`"}`) {
			t.Errorf("/metrics missing efficiency series for model %s", m)
		}
	}

	// The JSON snapshot carries the same gauges, and the capture series
	// (comparator fires only, no optical rows) still prices to positive
	// joules.
	snap := srv.Metrics()
	if snap.CacheCapacity != 8 {
		t.Errorf("CacheCapacity %d, want 8", snap.CacheCapacity)
	}
	cap, ok := snap.Energy["capture"]
	if !ok || cap.EnergyJPerRequest <= 0 {
		t.Errorf("capture energy gauge %+v ok=%v, want positive", cap, ok)
	}
	comp, ok := snap.Energy["compress"]
	if !ok || comp.EnergyJPerRequest <= cap.EnergyJPerRequest {
		t.Errorf("compress gauge %+v must out-price capture %+v (CA adds optical work)", comp, cap)
	}
	if _, ok := snap.Queues["/v1/compress"]; !ok {
		t.Errorf("queue snapshot missing /v1/compress: %v", snap.Queues)
	}
}

// TestDebugMuxGating: pprof and /debug/runtime mount only when Debug is
// set; /debug/traces is always available.
func TestDebugMuxGating(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, plain := testServer(t, acc, lightator.ServeOptions{Workers: 1})
	if status, _ := getBody(t, plain.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Errorf("pprof mounted without Debug: status %d", status)
	}
	if status, _ := getBody(t, plain.URL+"/debug/runtime"); status != http.StatusNotFound {
		t.Errorf("/debug/runtime mounted without Debug: status %d", status)
	}
	if status, _ := getBody(t, plain.URL+"/debug/traces"); status != http.StatusOK {
		t.Errorf("/debug/traces absent without Debug: status %d", status)
	}

	acc2 := testAccelerator(t, lightator.Physical)
	_, dbg := testServer(t, acc2, lightator.ServeOptions{Workers: 1, Debug: true})
	if status, _ := getBody(t, dbg.URL+"/debug/pprof/"); status != http.StatusOK {
		t.Errorf("pprof index status %d with Debug", status)
	}
	status, body := getBody(t, dbg.URL+"/debug/runtime")
	if status != http.StatusOK {
		t.Fatalf("/debug/runtime status %d with Debug", status)
	}
	var snap server.RuntimeSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decode runtime snapshot: %v (%s)", err, body)
	}
	if snap.Goroutines <= 0 || snap.GOMAXPROCS <= 0 || snap.HeapAllocBytes == 0 {
		t.Errorf("runtime snapshot not populated: %+v", snap)
	}
	if snap.Queues == nil {
		t.Error("runtime snapshot missing queue gauges")
	}
}

// TestTraceRetentionDisabled: TraceEntries < 0 disables the ring but
// the response headers still flow.
func TestTraceRetentionDisabled(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, TraceEntries: -1})

	resp := postRaw(t, ts.URL+"/v1/compress", lightator.NewCompressRequest(lightator.EncodeImage(testScene(5, 32, 32)), nil))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Lightator-Trace-Id") == "" {
		t.Error("trace headers must still be set with retention disabled")
	}

	_, body := getBody(t, ts.URL+"/debug/traces")
	var tr server.TracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Total != 0 || len(tr.Traces) != 0 {
		t.Errorf("disabled ring retained traces: total=%d held=%d", tr.Total, len(tr.Traces))
	}
}

// TestTraceMatVecAndSimulate: the unbatched endpoints trace too —
// matvec with analytically derived op counts, simulate with zero (it
// is a digital model run).
func TestTraceMatVecAndSimulate(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, CacheEntries: -1})

	w := [][]float64{{0.5, -0.25, 0.1}, {0.2, 0.3, -0.4}}
	x := []float64{1, 0.5, 0.25}
	resp := postRaw(t, ts.URL+"/v1/matvec", lightator.MatVecRequest{Weights: w, Activations: x})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matvec status %d", resp.StatusCode)
	}
	ops := resp.Header.Get("X-Lightator-Ops")
	if !strings.Contains(ops, "mvm_rows=2") || !strings.Contains(ops, "dac_settles=6") {
		t.Errorf("matvec ops %q, want 2 rows and 6 settles for a 2x3 matrix", ops)
	}

	resp = postRaw(t, ts.URL+"/v1/simulate", lightator.SimulateRequest{Model: "lenet"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d", resp.StatusCode)
	}
	if ops := resp.Header.Get("X-Lightator-Ops"); !strings.Contains(ops, "mvm_rows=0") {
		t.Errorf("simulate ops %q, want all-zero (digital run)", ops)
	}

	_, body := getBody(t, ts.URL+"/debug/traces")
	var tr server.TracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	endpoints := map[string]bool{}
	for _, rec := range tr.Traces {
		endpoints[rec.Endpoint] = true
	}
	if !endpoints["/v1/matvec"] || !endpoints["/v1/simulate"] {
		t.Errorf("traced endpoints %v, want /v1/matvec and /v1/simulate", endpoints)
	}
}

// TestTraceRingEviction: the ring caps retention and Total keeps
// counting past eviction.
func TestTraceRingEviction(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, TraceEntries: 2, CacheEntries: -1})

	for i := 0; i < 4; i++ {
		resp := postRaw(t, ts.URL+"/v1/capture", lightator.NewCaptureRequest(lightator.EncodeImage(testScene(int64(i), 32, 32)), nil))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// The batched endpoints respond before the trace ring add completes
	// in rare schedules; poll briefly rather than flake.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, body := getBody(t, ts.URL+"/debug/traces")
		var tr server.TracesResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Total >= 4 && len(tr.Traces) == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring state total=%d held=%d, want total>=4 held=2", tr.Total, len(tr.Traces))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
