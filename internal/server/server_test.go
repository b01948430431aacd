// End-to-end tests of the serving layer, run through the public facade so
// the determinism contract is checked against the exact calls it is
// stated in terms of (lightator.AcquireCompressed and friends).
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lightator"
	"lightator/internal/server"
)

// testAccelerator builds a small, fast accelerator (32x32 sensor, 2x2 CA).
func testAccelerator(t *testing.T, fid lightator.Fidelity) *lightator.Accelerator {
	t.Helper()
	cfg := lightator.DefaultConfig()
	cfg.SensorRows, cfg.SensorCols = 32, 32
	cfg.Fidelity = fid
	acc, err := lightator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// testServer stands up a server over acc with the given options and
// registers cleanup (drain, then close the listener).
func testServer(t *testing.T, acc *lightator.Accelerator, opts lightator.ServeOptions) (*lightator.Server, *httptest.Server) {
	t.Helper()
	srv, err := acc.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return srv, ts
}

// testScene builds a deterministic RGB scene.
func testScene(seed int64, h, w int) *lightator.Image {
	rng := rand.New(rand.NewSource(seed))
	s := lightator.NewImage(h, w, 3)
	for i := range s.Pix {
		s.Pix[i] = rng.Float64()
	}
	return s
}

// postJSON posts v and decodes the response body into out (when non-nil),
// returning the status code and raw body.
func postJSON(t *testing.T, url string, v any, out any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v (body %q)", url, err, buf.String())
		}
	}
	return resp.StatusCode, buf.Bytes()
}

// postRepeats posts req three times to a cacheable endpoint on a fresh
// key. The cache admits a body on its key's second sighting, so requests
// 1 and 2 must miss and request 3 must hit, with three identical bodies.
// It returns the body and the three responses' headers.
func postRepeats(t *testing.T, url string, req any) ([]byte, [3]http.Header) {
	t.Helper()
	var bodies [3][]byte
	var hdrs [3]http.Header
	for i, want := range []string{"miss", "miss", "hit"} {
		resp := postRaw(t, url, req)
		var buf bytes.Buffer
		_, err := buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s request %d: status %d (%s)", url, i+1, resp.StatusCode, buf.String())
		}
		if got := resp.Header.Get("X-Lightator-Cache"); got != want {
			t.Errorf("%s request %d: X-Lightator-Cache = %q, want %s", url, i+1, got, want)
		}
		bodies[i], hdrs[i] = buf.Bytes(), resp.Header
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[0], bodies[2]) {
		t.Errorf("%s: the three responses differ; a miss and a hit must serve the same bytes", url)
	}
	return bodies[0], hdrs
}

// TestConcurrentCompressMatchesDirect is the acceptance-criterion test:
// many concurrent clients hitting /v1/compress — so their requests
// coalesce into shared micro-batches — get responses byte-identical to
// direct facade calls, in every fidelity.
func TestConcurrentCompressMatchesDirect(t *testing.T) {
	const clients = 10
	for _, fid := range []lightator.Fidelity{lightator.Ideal, lightator.Physical, lightator.PhysicalNoisy} {
		t.Run(fid.String(), func(t *testing.T) {
			acc := testAccelerator(t, fid)
			// Small batch size and a non-trivial delay force both size-
			// and deadline-triggered flushes across the burst.
			_, ts := testServer(t, acc, lightator.ServeOptions{
				Workers: 2, BatchSize: 4, BatchDelay: 5 * time.Millisecond,
			})

			scenes := make([]*lightator.Image, clients)
			for i := range scenes {
				scenes[i] = testScene(int64(100+i), 32, 32)
			}
			// Direct single-scene batches: the calls the contract quotes.
			want := make([]*lightator.Image, clients)
			for i, s := range scenes {
				out, err := acc.AcquireCompressedBatch([]*lightator.Image{s}, 1)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = out[0]
			}

			got := make([]*lightator.Image, clients)
			var wg sync.WaitGroup
			for i := range scenes {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var resp lightator.CompressResponse
					status, body := postJSON(t, ts.URL+"/v1/compress",
						lightator.NewCompressRequest(lightator.EncodeImage(scenes[i]), nil), &resp)
					if status != http.StatusOK {
						t.Errorf("client %d: status %d (%s)", i, status, body)
						return
					}
					im, err := lightator.DecodeImage(resp.Image)
					if err != nil {
						t.Errorf("client %d: %v", i, err)
						return
					}
					got[i] = im
				}(i)
			}
			wg.Wait()

			for i := range scenes {
				if got[i] == nil {
					t.Fatalf("client %d: no response", i)
				}
				for j := range want[i].Pix {
					if got[i].Pix[j] != want[i].Pix[j] {
						t.Fatalf("fidelity %v client %d: pixel %d differs: %g (HTTP) vs %g (direct)",
							fid, i, j, got[i].Pix[j], want[i].Pix[j])
					}
				}
				// The serial facade path must agree too: it is the
				// one-scene batch under the same seed.
				serial, err := acc.AcquireCompressed(scenes[i])
				if err != nil {
					t.Fatal(err)
				}
				for j := range serial.Pix {
					if got[i].Pix[j] != serial.Pix[j] {
						t.Fatalf("fidelity %v client %d: pixel %d differs from AcquireCompressed", fid, i, j)
					}
				}
			}
		})
	}
}

// TestBatcherFlushTriggers pins both flush paths: a full batch flushes on
// size without waiting out the deadline, and a partial batch flushes on
// the deadline.
func TestBatcherFlushTriggers(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	// Deadline far too long to finish the test: only a size trigger can
	// deliver these four responses quickly.
	srv, ts := testServer(t, acc, lightator.ServeOptions{
		Workers: 2, BatchSize: 4, BatchDelay: 30 * time.Second, CacheEntries: -1,
	})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v1/compress",
				lightator.NewCompressRequest(lightator.EncodeImage(testScene(int64(i), 32, 32)), nil), nil)
			if status != http.StatusOK {
				t.Errorf("status %d (%s)", status, body)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("size-triggered flush took %v; batch must not wait for the deadline", elapsed)
	}
	if m := srv.Metrics(); m.Batcher.SizeFlushes == 0 {
		t.Errorf("no size-triggered flush recorded: %+v", m.Batcher)
	}

	// Deadline trigger: batch far larger than the two requests sent.
	srv2, ts2 := testServer(t, acc, lightator.ServeOptions{
		Workers: 2, BatchSize: 64, BatchDelay: 10 * time.Millisecond, CacheEntries: -1,
	})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJSON(t, ts2.URL+"/v1/compress",
				lightator.NewCompressRequest(lightator.EncodeImage(testScene(int64(i), 32, 32)), nil), nil)
			if status != http.StatusOK {
				t.Errorf("status %d (%s)", status, body)
			}
		}(i)
	}
	wg.Wait()
	if m := srv2.Metrics(); m.Batcher.DeadlineFlushes == 0 {
		t.Errorf("no deadline-triggered flush recorded: %+v", m.Batcher)
	}
}

// TestOverloadReturns429 pins admission control: with a tiny queue and a
// slow-flushing batcher, a burst must see rejections — 429 from the
// bounded queue and the lower shed tiers, 503 once occupancy crosses the
// shed-everything tier (with a queue of 1, any queued item is 100%
// occupancy) — while every accepted request still completes.
func TestOverloadReturns429(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	// Queue of 1, one in-flight batch, and a batch size of 2 with a long
	// deadline: the burst of 32 cannot all fit in flight.
	srv, ts := testServer(t, acc, lightator.ServeOptions{
		Workers: 1, BatchSize: 2, BatchDelay: 20 * time.Millisecond,
		Queue: 1, MaxBatches: 1, CacheEntries: -1,
	})
	const burst = 32
	statuses := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct scenes so no two requests could ever be conflated.
			statuses[i], _ = postJSON(t, ts.URL+"/v1/compress",
				lightator.NewCompressRequest(lightator.EncodeImage(testScene(int64(i), 32, 32)), nil), nil)
		}(i)
	}
	wg.Wait()
	var ok, rejected int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	if rejected == 0 {
		t.Errorf("burst of %d with queue=1 produced no rejections (ok=%d)", burst, ok)
	}
	if ok == 0 {
		t.Errorf("burst of %d produced no successes (rejected=%d)", burst, rejected)
	}
	m := srv.Metrics()
	if ep := m.Endpoints["/v1/compress"]; ep.Rejected != int64(rejected) {
		t.Errorf("metrics rejected=%d, observed %d", ep.Rejected, rejected)
	}
}

// TestGracefulShutdownDrains pins the drain contract: requests already
// admitted complete (their partially-filled batch flushes immediately,
// not at the deadline), and requests after drain get 503.
func TestGracefulShutdownDrains(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, err := acc.NewServer(lightator.ServeOptions{
		Workers: 2, BatchSize: 64, BatchDelay: 30 * time.Second, CacheEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const inflight = 6
	statuses := make([]int, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts.URL+"/v1/compress",
				lightator.NewCompressRequest(lightator.EncodeImage(testScene(int64(i), 32, 32)), nil), nil)
		}(i)
	}
	// Let the burst reach the batcher; with a 30s deadline and batch size
	// 64 the requests are necessarily parked in the collector when drain
	// begins.
	time.Sleep(200 * time.Millisecond)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v; must flush parked batches immediately", elapsed)
	}
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("in-flight request %d finished with %d, want 200", i, st)
		}
	}

	// After drain: new work is refused, readiness reports draining, but
	// liveness stays 200 (a failing liveness probe would get the process
	// killed mid-drain).
	status, _ := postJSON(t, ts.URL+"/v1/compress",
		lightator.NewCompressRequest(lightator.EncodeImage(testScene(99, 32, 32)), nil), nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-drain request got %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain readyz %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain healthz %d, want 200 (liveness must survive drain)", resp.StatusCode)
	}
	if m := srv.Metrics(); m.Batcher.DrainFlushes == 0 {
		t.Errorf("no drain-triggered flush recorded: %+v", m.Batcher)
	}
}

// TestCaptureMatchesDirect checks /v1/capture against the serial facade
// path (capture is noise-free in every fidelity).
func TestCaptureMatchesDirect(t *testing.T) {
	acc := testAccelerator(t, lightator.PhysicalNoisy)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 2, BatchDelay: time.Millisecond})
	scene := testScene(7, 32, 32)
	want, err := acc.Capture(scene)
	if err != nil {
		t.Fatal(err)
	}
	var resp lightator.CaptureResponse
	status, body := postJSON(t, ts.URL+"/v1/capture",
		lightator.NewCaptureRequest(lightator.EncodeImage(scene), nil), &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, body)
	}
	got, err := lightator.DecodeFrame(resp.Frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("frame dims %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Codes {
		if got.Codes[i] != want.Codes[i] {
			t.Fatalf("code %d differs: %d vs %d", i, got.Codes[i], want.Codes[i])
		}
	}
}

// TestMatVecMatchesDirect checks /v1/matvec against the facade's seeded
// batch path and its serial MatVec in every fidelity.
func TestMatVecMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := make([][]float64, 4)
	for r := range weights {
		weights[r] = make([]float64, 12)
		for c := range weights[r] {
			weights[r][c] = 2*rng.Float64() - 1
		}
	}
	x := make([]float64, 12)
	for i := range x {
		x[i] = rng.Float64()
	}
	for _, fid := range []lightator.Fidelity{lightator.Ideal, lightator.Physical, lightator.PhysicalNoisy} {
		acc := testAccelerator(t, fid)
		_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1})
		want, err := acc.MatVecBatch(weights, [][]float64{x}, 1)
		if err != nil {
			t.Fatal(err)
		}
		var resp lightator.MatVecResponse
		status, body := postJSON(t, ts.URL+"/v1/matvec",
			lightator.MatVecRequest{Weights: weights, Activations: x}, &resp)
		if status != http.StatusOK {
			t.Fatalf("%v: status %d (%s)", fid, status, body)
		}
		if len(resp.Output) != len(want[0]) {
			t.Fatalf("%v: output length %d, want %d", fid, len(resp.Output), len(want[0]))
		}
		for i := range want[0] {
			if resp.Output[i] != want[0][i] {
				t.Fatalf("%v: output %d differs: %g vs %g", fid, i, resp.Output[i], want[0][i])
			}
		}
		serial, err := acc.MatVec(weights, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if resp.Output[i] != serial[i] {
				t.Fatalf("%v: output %d differs from serial MatVec", fid, i)
			}
		}
	}
}

// TestSimulateAndHealth covers /v1/simulate, /healthz and /metrics.
func TestSimulateAndHealth(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{})
	// Repeats: the second misses, the third is a cache hit, and every
	// body is identical (postRepeats also requires status 200).
	body, _ := postRepeats(t, ts.URL+"/v1/simulate", lightator.SimulateRequest{Model: "lenet"})
	var rep lightator.PerformanceReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.FPS <= 0 || rep.Model != "lenet" {
		t.Errorf("implausible report: model=%q fps=%g", rep.Model, rep.FPS)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/simulate", lightator.SimulateRequest{Model: "nope"}, nil); status != http.StatusBadRequest {
		t.Errorf("unknown model got %d, want 400", status)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap lightator.ServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ep := snap.Endpoints["/v1/simulate"]; ep.Requests < 3 || ep.CacheHits < 1 {
		t.Errorf("simulate metrics: %+v", ep)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(text.Bytes(), []byte("lightator_requests_total")) {
		t.Errorf("prometheus text missing counters: %q", text.String())
	}
	_ = srv
}

// TestCompressCacheDeterministicOnly: deterministic fidelities serve
// repeats from the cache with identical bytes, from the second repeat
// on; PhysicalNoisy bypasses the cache entirely (yet stays reproducible
// thanks to seeding).
func TestCompressCacheDeterministicOnly(t *testing.T) {
	scene := testScene(11, 32, 32)
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchDelay: time.Millisecond})
	req := lightator.NewCompressRequest(lightator.EncodeImage(scene), nil)
	// The second request misses, the third hits, all with one body.
	postRepeats(t, ts.URL+"/v1/compress", req)
	if m := srv.Metrics(); m.Endpoints["/v1/compress"].CacheHits == 0 {
		t.Errorf("no cache hit in deterministic fidelity: %+v", m.Endpoints["/v1/compress"])
	}

	noisy := testAccelerator(t, lightator.PhysicalNoisy)
	nsrv, nts := testServer(t, noisy, lightator.ServeOptions{Workers: 1, BatchDelay: time.Millisecond})
	_, nbody1 := postJSON(t, nts.URL+"/v1/compress", req, nil)
	_, nbody2 := postJSON(t, nts.URL+"/v1/compress", req, nil)
	if !bytes.Equal(nbody1, nbody2) {
		t.Error("seeded noisy responses must still be reproducible")
	}
	if m := nsrv.Metrics(); m.Endpoints["/v1/compress"].CacheHits != 0 || m.Endpoints["/v1/compress"].CacheMisses != 0 {
		t.Errorf("cache touched in noisy fidelity: %+v", m.Endpoints["/v1/compress"])
	}
}

// TestBadRequests pins the client-error paths.
func TestBadRequests(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{BatchDelay: time.Millisecond})

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON got %d, want 400", resp.StatusCode)
	}

	// Image payload length inconsistent with dims.
	bad := lightator.EncodeImage(testScene(1, 16, 16))
	bad.H = 32
	if status, _ := postJSON(t, ts.URL+"/v1/compress", lightator.NewCompressRequest(bad, nil), nil); status != http.StatusBadRequest {
		t.Errorf("inconsistent image got %d, want 400", status)
	}

	// Overflow-crafted dims (h*w*c*8 wraps): must 400, not panic the
	// handler on allocation.
	huge := lightator.ImageWire{H: 1 << 31, W: 1 << 30, C: 1}
	if status, _ := postJSON(t, ts.URL+"/v1/capture", lightator.NewCaptureRequest(huge, nil), nil); status != http.StatusBadRequest {
		t.Errorf("overflow dims got %d, want 400", status)
	}

	// Scene that doesn't match the sensor: a per-frame pipeline error.
	if status, _ := postJSON(t, ts.URL+"/v1/compress",
		lightator.NewCompressRequest(lightator.EncodeImage(testScene(1, 16, 16)), nil), nil); status != http.StatusBadRequest {
		t.Errorf("mismatched scene got %d, want 400", status)
	}

	// Ragged matvec weights.
	if status, _ := postJSON(t, ts.URL+"/v1/matvec", lightator.MatVecRequest{
		Weights: [][]float64{{1, 2}, {3}}, Activations: []float64{0.5, 0.5},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("ragged weights got %d, want 400", status)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/compress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on /v1/compress got %d, want 405", resp.StatusCode)
	}
}

// TestCADisabledServesCaptureOnly: a CAPool=0 accelerator serves the
// capture route alone. Every endpoint that needs compressive acquisition
// answers 501 not_implemented, the registries list nothing, and the
// metrics snapshot carries only the capture series.
func TestCADisabledServesCaptureOnly(t *testing.T) {
	cfg := lightator.DefaultConfig()
	cfg.SensorRows, cfg.SensorCols, cfg.CAPool = 32, 32, 0
	noCA, err := lightator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, noCA, lightator.ServeOptions{BatchDelay: time.Millisecond})
	scene := lightator.EncodeImage(testScene(1, 32, 32))
	plane := lightator.EncodeImage(testCompressedPlane(2, 16, 16))
	for _, c := range []struct {
		name, path string
		req        any
	}{
		{"compress", "/v1/compress", lightator.NewCompressRequest(scene, nil)},
		{"process", "/v1/process", lightator.NewProcessRequest(scene, "edge", nil)},
		{"infer scene", "/v1/infer", lightator.InferRequest{Scene: &scene, Model: "tiny-cnn"}},
		{"infer plane", "/v1/infer", lightator.InferRequest{Plane: &plane, Model: "tiny-cnn"}},
		{"session open", "/v1/session", server.SessionRequest{Kind: "process", Kernel: "edge"}},
	} {
		status, body := postJSON(t, ts.URL+c.path, c.req, nil)
		if status != http.StatusNotImplemented {
			t.Errorf("CA-disabled %s got %d (%s), want 501", c.name, status, body)
			continue
		}
		assertErrShape(t, body, server.CodeNotImplemented)
	}
	if status, body := postJSON(t, ts.URL+"/v1/capture", lightator.NewCaptureRequest(scene, nil), nil); status != http.StatusOK {
		t.Fatalf("CA-disabled capture got %d (%s), want 200", status, body)
	}

	if _, body := getJSON(t, ts.URL+"/v1/kernels", nil); string(body) != `{"kernels":[]}`+"\n" {
		t.Errorf("CA-disabled /v1/kernels answered %q, want an empty list", body)
	}
	var models lightator.ModelsResponse
	if _, body := getJSON(t, ts.URL+"/v1/models", &models); models.Models == nil || len(models.Models) != 0 {
		t.Errorf("CA-disabled /v1/models answered %q, want an empty list", body)
	}

	var snap map[string]json.RawMessage
	getJSON(t, ts.URL+"/metrics?format=json", &snap)
	for key, want := range map[string]string{"energy": "capture", "queues": "/v1/capture"} {
		var series map[string]json.RawMessage
		if err := json.Unmarshal(snap[key], &series); err != nil {
			t.Fatalf("metrics %s: %v", key, err)
		}
		if _, ok := series[want]; !ok || len(series) != 1 {
			t.Errorf("CA-disabled metrics %s series %s, want only %q", key, snap[key], want)
		}
	}
	for _, key := range []string{"process_pipelines", "infer_pipelines"} {
		if _, ok := snap[key]; ok {
			t.Errorf("CA-disabled metrics carry %s: %s", key, snap[key])
		}
	}
}

// TestWireRoundTrip pins the lossless codec property the determinism
// contract depends on.
func TestWireRoundTrip(t *testing.T) {
	im := testScene(5, 8, 6)
	back, err := server.DecodeImage(server.EncodeImage(im))
	if err != nil {
		t.Fatal(err)
	}
	if back.H != im.H || back.W != im.W || back.C != im.C {
		t.Fatalf("dims changed: %dx%dx%d", back.H, back.W, back.C)
	}
	for i := range im.Pix {
		if back.Pix[i] != im.Pix[i] {
			t.Fatalf("pixel %d not bit-identical", i)
		}
	}
	if _, err := server.DecodeImage(server.ImageWire{H: 2, W: 2, C: 3, Pix: "!!!"}); err == nil {
		t.Error("invalid base64 accepted")
	}
	if _, err := server.DecodeImage(server.ImageWire{H: 0, W: 2, C: 3}); err == nil {
		t.Error("zero height accepted")
	}
	if _, err := server.DecodeFrame(server.FrameWire{Rows: 4, Cols: 4, Codes: "AAAA"}); err == nil {
		t.Error("short frame payload accepted")
	}
}

// TestServeOptionsValidated: a negative count, size or delay that no
// field documents as "disabled" is refused by NewServer, naming the
// field; zero takes the default, and the
// negatives documented as disabling stay valid.
func TestServeOptionsValidated(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	for _, tc := range []struct {
		name    string
		opts    lightator.ServeOptions
		wantErr string
	}{
		{"zeros", lightator.ServeOptions{}, ""},
		{"documented disables", lightator.ServeOptions{
			CacheEntries: -1, TraceEntries: -1, SessionIdleTimeout: -1, RequestTimeout: -1,
			ReadHeaderTimeout: -1, IdleTimeout: -1, ShedCacheMiss: -1, ShedNonSession: -1, ShedAll: -1,
		}, ""},
		{"workers", lightator.ServeOptions{Workers: -1}, "Workers = -1"},
		{"batch size", lightator.ServeOptions{BatchSize: -1}, "BatchSize = -1"},
		{"batch delay", lightator.ServeOptions{BatchDelay: -time.Millisecond}, "BatchDelay = -1ms"},
		{"queue", lightator.ServeOptions{Queue: -3}, "Queue = -3"},
		{"max batches", lightator.ServeOptions{MaxBatches: -1}, "MaxBatches = -1"},
		{"max sessions", lightator.ServeOptions{MaxSessions: -1}, "MaxSessions = -1"},
		{"session window", lightator.ServeOptions{SessionWindow: -8}, "SessionWindow = -8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.opts.Workers == 0 {
				tc.opts.Workers = 1
			}
			tc.opts.AgreementFrames = -1
			srv, err := acc.NewServer(tc.opts)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), ">= 0") {
					t.Fatalf("NewServer error %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			if err := srv.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShedThresholdsValidated: a shed threshold is a queue occupancy in
// (0,1], zero for its default or negative to switch its tier off. NaN
// and values above 1 would switch the tier off silently (occupancy never
// exceeds 1, and NaN compares false), so construction refuses them.
func TestShedThresholdsValidated(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	for _, tc := range []struct {
		name    string
		opts    lightator.ServeOptions
		wantErr string
	}{
		{"defaults", lightator.ServeOptions{}, ""},
		{"all at 1", lightator.ServeOptions{ShedCacheMiss: 1, ShedNonSession: 1, ShedAll: 1}, ""},
		{"small", lightator.ServeOptions{ShedCacheMiss: 0.01}, ""},
		{"disabled", lightator.ServeOptions{ShedCacheMiss: -1, ShedNonSession: -0.5, ShedAll: math.Inf(-1)}, ""},
		{"cache miss above 1", lightator.ServeOptions{ShedCacheMiss: 1.5}, "ShedCacheMiss = 1.5"},
		{"non-session NaN", lightator.ServeOptions{ShedNonSession: math.NaN()}, "ShedNonSession = NaN"},
		{"all +Inf", lightator.ServeOptions{ShedAll: math.Inf(1)}, "ShedAll = +Inf"},
		{"all just above 1", lightator.ServeOptions{ShedAll: 1.0000001}, "ShedAll = 1.0000001"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Workers, tc.opts.AgreementFrames = 1, -1
			srv, err := acc.NewServer(tc.opts)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("NewServer: %v", err)
				}
				if err := srv.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "(0,1]") {
				t.Fatalf("NewServer error %v, want one naming %q and the range (0,1]", err, tc.wantErr)
			}
		})
	}
}
