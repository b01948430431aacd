// Chaos e2e: the serving stack under the committed fault plan
// (testdata/chaos_plan.json — the same plan docs/FAULTS.md walks
// through). The ladder's repairs depend on request arrival order, so
// these tests assert properties, not bytes: zero 500s, every persistent
// optical-core fault detected within one frame and recovered or degraded
// per the ladder, degraded responses correctly flagged on the wire, and
// byte-identity to a fault-free server when no fault is active. The
// comparator stuck-at in the plan is the documented ABFT-blind case
// (docs/FAULTS.md#taxonomy): it corrupts the sensor readout before the
// optical core, so no health assertion covers it — only the no-500 and
// no-corrupted-200 properties do.
package server_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lightator"
	"lightator/internal/server"
)

// chaosPlan loads the committed fault plan.
func chaosPlan(t *testing.T) *lightator.FaultPlan {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "chaos_plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lightator.ParseFaultPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// chaosAccelerator builds the small test accelerator with a fault plan
// installed.
func chaosAccelerator(t *testing.T, fid lightator.Fidelity, plan *lightator.FaultPlan) *lightator.Accelerator {
	t.Helper()
	cfg := lightator.DefaultConfig()
	cfg.SensorRows, cfg.SensorCols = 32, 32
	cfg.Fidelity = fid
	cfg.FaultPlan = plan
	acc, err := lightator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// chaosMatVec builds a 32-row weight matrix (32 rows => ABFT stride 1,
// every apply checked) whose row 1 coefficient 0 sits far from the
// plan's stuck rail, plus a matching activation vector.
func chaosMatVec() ([][]float64, []float64) {
	const rows, cols = 32, 8
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = math.Sin(float64(r*cols+c+1)) * 0.8
		}
	}
	w[1][0] = -0.5
	x := make([]float64, cols)
	for j := range x {
		x[j] = 0.25 + 0.5*float64(j%3)/3
	}
	return w, x
}

// componentHealth finds one component's snapshot by label.
func componentHealth(t *testing.T, acc *lightator.Accelerator, label string) lightator.ComponentHealth {
	t.Helper()
	for _, h := range acc.Health() {
		if h.Label == label {
			return h
		}
	}
	t.Fatalf("component %q not in health snapshot %+v", label, acc.Health())
	return lightator.ComponentHealth{}
}

// TestChaosBurstNo500s is the headline chaos property: a concurrent
// mixed burst against a server running the committed plan produces zero
// HTTP 500s and zero undecodable 200 bodies, and afterwards every
// persistent optical-core fault in the plan has been detected and
// resolved per the ladder — the CA drift absorbed by recalibration, the
// stuck MVM coefficient retired to the digital fallback (degraded).
func TestChaosBurstNo500s(t *testing.T) {
	acc := chaosAccelerator(t, lightator.Physical, chaosPlan(t))
	_, ts := testServer(t, acc, lightator.ServeOptions{
		Workers: 2, BatchSize: 4, Queue: 64,
	})
	weights, acts := chaosMatVec()
	seed := int64(7)

	const perKind = 8
	var wg sync.WaitGroup
	post := func(i int, path string, req any, out any) {
		defer wg.Done()
		status, body := postJSON(t, ts.URL+path, req, out)
		if status >= http.StatusInternalServerError {
			t.Errorf("%s #%d: status %d under chaos: %s", path, i, status, body)
		}
	}
	for i := 0; i < perKind; i++ {
		s := lightator.EncodeImage(testScene(int64(100+i), 32, 32))
		sd := seed + int64(i)
		wg.Add(4)
		go post(i, "/v1/capture", lightator.NewCaptureRequest(s, &sd), &lightator.CaptureResponse{})
		go post(i, "/v1/compress", lightator.NewCompressRequest(s, &sd), &lightator.CompressResponse{})
		go post(i, "/v1/process", lightator.NewProcessRequest(s, "edge", &sd), &lightator.ProcessResponse{})
		go post(i, "/v1/matvec", server.MatVecRequest{Weights: weights, Activations: acts, Seed: &sd}, &lightator.MatVecResponse{})
	}
	wg.Wait()

	// Ladder outcomes, per docs/FAULTS.md: drift_coeff 0.03 on "ca" is
	// within the recalibration budget; stuck_coeff 0.95 on "mvm" row 1
	// is not, so that row retires and the component degrades. Both must
	// have been detected within the burst (CA checks are stride-sampled,
	// but one 32x32 frame is 256 window applies — well past one stride).
	ca := componentHealth(t, acc, "ca")
	if ca.Detections == 0 || ca.Recalibrations == 0 {
		t.Errorf("ca: detections=%d recalibrations=%d, want both > 0", ca.Detections, ca.Recalibrations)
	}
	if ca.RetiredRows != 0 {
		t.Errorf("ca: %d rows retired for an absorbable drift", ca.RetiredRows)
	}
	mvm := componentHealth(t, acc, "mvm")
	if mvm.Detections == 0 || mvm.RetiredRows == 0 || !mvm.Degraded {
		t.Errorf("mvm: detections=%d retired=%d degraded=%v, want detection and retirement", mvm.Detections, mvm.RetiredRows, mvm.Degraded)
	}

	// A sequential matvec against the now-degraded component must carry
	// the wire flag and the header — no silently-degraded 200s.
	reqBody, err := json.Marshal(server.MatVecRequest{Weights: weights, Activations: acts, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/matvec", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded matvec: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Lightator-Degraded") != "true" {
		t.Error("degraded matvec response missing X-Lightator-Degraded header")
	}
	var mv lightator.MatVecResponse
	if err := json.NewDecoder(resp.Body).Decode(&mv); err != nil {
		t.Fatalf("decode degraded matvec response: %v", err)
	}
	if !mv.Degraded {
		t.Error("degraded matvec response missing degraded wire flag")
	}

	// /healthz reports the degradation with the failing component.
	var hz server.HealthzResponse
	if status, body := getJSON(t, ts.URL+"/healthz", &hz); status != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", status, body)
	}
	if hz.Status != "degraded" || !hz.Degraded {
		t.Errorf("healthz status %q degraded=%v, want degraded", hz.Status, hz.Degraded)
	}
	if !contains(hz.Failing, "mvm") {
		t.Errorf("healthz failing %v, want mvm listed", hz.Failing)
	}
}

// TestChaosTransientRetries drives the plan's windowed bit-flip on
// kernel:edge through /v1/process until it lands, and expects the
// bounded-retry tier to clear every detection — no retirement, no
// degradation, and no 500s.
func TestChaosTransientRetries(t *testing.T) {
	acc := chaosAccelerator(t, lightator.Physical, chaosPlan(t))
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 2, BatchSize: 4})
	s := lightator.EncodeImage(testScene(5, 32, 32))
	for i := 0; i < 12; i++ {
		sd := int64(40 + i)
		var pr lightator.ProcessResponse
		status, body := postJSON(t, ts.URL+"/v1/process", lightator.NewProcessRequest(s, "edge", &sd), &pr)
		if status != http.StatusOK {
			t.Fatalf("process #%d: status %d: %s", i, status, body)
		}
		if pr.Degraded {
			t.Fatalf("process #%d flagged degraded for a transient fault", i)
		}
	}
	k := componentHealth(t, acc, "kernel:edge")
	if k.Detections == 0 {
		t.Fatal("windowed bit-flip never landed in 12 frames of edge windows")
	}
	if k.RetrySuccesses != k.Detections {
		t.Fatalf("retries cleared %d of %d detections", k.RetrySuccesses, k.Detections)
	}
	if k.RetiredRows != 0 || k.Degraded {
		t.Fatal("transient fault must not retire or degrade")
	}
}

// TestChaosInactiveFaultByteIdentity pins the no-fault half of the
// contract: a server whose plan compiles real injection hooks that never
// activate (zero-duty windows, unmatched targets) answers byte-for-byte
// identically to a server with no plan at all — fault *machinery* being
// armed changes nothing until a fault fires.
func TestChaosInactiveFaultByteIdentity(t *testing.T) {
	inactive := &lightator.FaultPlan{Name: "inactive", Faults: []lightator.Fault{
		{Kind: "stuck_coeff", Target: "*", Row: 0, Value: 0.9,
			Window: lightator.FaultWindow{Period: 7, Duty: 0}},
		{Kind: "bit_flip", Target: "ca", Row: 0, Value: 0.5,
			Window: lightator.FaultWindow{Period: 3, Duty: 0, Salt: 4}},
		{Kind: "comparator_stuck", Target: "sensor", Col: 3, Value: 1,
			Window: lightator.FaultWindow{Period: 5, Duty: 0}},
		{Kind: "drift_coeff", Target: "kernel:no-such-kernel", Row: 0, Value: 0.1},
	}}
	for _, fid := range []lightator.Fidelity{lightator.Physical, lightator.PhysicalNoisy} {
		t.Run(fid.String(), func(t *testing.T) {
			_, plain := testServer(t, testAccelerator(t, fid), lightator.ServeOptions{Workers: 2, BatchSize: 4})
			_, armed := testServer(t, chaosAccelerator(t, fid, inactive), lightator.ServeOptions{Workers: 2, BatchSize: 4})
			scene := lightator.EncodeImage(testScene(9, 32, 32))
			seed := int64(21)
			weights, acts := chaosMatVec()
			for _, rq := range []struct {
				path string
				req  any
			}{
				{"/v1/capture", lightator.NewCaptureRequest(scene, &seed)},
				{"/v1/compress", lightator.NewCompressRequest(scene, &seed)},
				{"/v1/process", lightator.NewProcessRequest(scene, "edge", &seed)},
				{"/v1/matvec", server.MatVecRequest{Weights: weights, Activations: acts, Seed: &seed}},
			} {
				st1, want := postJSON(t, plain.URL+rq.path, rq.req, nil)
				st2, got := postJSON(t, armed.URL+rq.path, rq.req, nil)
				if st1 != http.StatusOK || st2 != http.StatusOK {
					t.Fatalf("%s: status plain=%d armed=%d", rq.path, st1, st2)
				}
				if string(want) != string(got) {
					t.Errorf("%s: armed-but-inactive plan changed bytes:\n plain %s\n armed %s", rq.path, want, got)
				}
			}
		})
	}
}

// TestChaosRejectDegraded covers the strict serving policy: with
// RejectDegraded set, the request that trips the fault is still served
// (flagged), and every compute request after the component degrades is
// refused with 503 degraded_unavailable — while /healthz keeps
// answering so operators can see why.
func TestChaosRejectDegraded(t *testing.T) {
	plan := &lightator.FaultPlan{Name: "stuck-mvm", Faults: []lightator.Fault{
		{Kind: "stuck_coeff", Target: "mvm", Row: 1, Value: 0.95},
	}}
	acc := chaosAccelerator(t, lightator.Physical, plan)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 2, BatchSize: 4, RejectDegraded: true})
	weights, acts := chaosMatVec()
	seed := int64(3)
	req := server.MatVecRequest{Weights: weights, Activations: acts, Seed: &seed}

	var mv lightator.MatVecResponse
	status, body := postJSON(t, ts.URL+"/v1/matvec", req, &mv)
	if status != http.StatusOK {
		t.Fatalf("first matvec: status %d: %s", status, body)
	}
	if !mv.Degraded {
		t.Error("fault-tripping matvec not flagged degraded")
	}

	status, body = postJSON(t, ts.URL+"/v1/matvec", req, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("matvec after degradation: status %d, want 503: %s", status, body)
	}
	assertErrShape(t, body, "degraded_unavailable")

	var hz server.HealthzResponse
	if status, body := getJSON(t, ts.URL+"/healthz", &hz); status != http.StatusOK || !hz.Degraded {
		t.Fatalf("healthz under RejectDegraded: status %d degraded %v: %s", status, hz.Degraded, body)
	}
}

// TestChaosSessionDegradedFlag checks the streaming path: once any
// component degrades, session frame results carry the degraded flag.
func TestChaosSessionDegradedFlag(t *testing.T) {
	plan := &lightator.FaultPlan{Name: "stuck-mvm", Faults: []lightator.Fault{
		{Kind: "stuck_coeff", Target: "mvm", Row: 1, Value: 0.95},
	}}
	acc := chaosAccelerator(t, lightator.Physical, plan)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 2, BatchSize: 4})
	weights, acts := chaosMatVec()
	seed := int64(3)
	if status, body := postJSON(t, ts.URL+"/v1/matvec",
		server.MatVecRequest{Weights: weights, Activations: acts, Seed: &seed}, nil); status != http.StatusOK {
		t.Fatalf("trip matvec: status %d: %s", status, body)
	}
	if !acc.Degraded() {
		t.Fatal("accelerator not degraded after the stuck-coefficient trip")
	}

	sr := openSession(t, ts.URL, server.SessionRequest{Kind: "process", Kernel: "edge", Seed: &seed})
	results, _ := streamAll(t, ts.URL, sr.ID, e2eScenes(3, 0))
	if len(results) != 3 {
		t.Fatalf("streamed %d results, want 3", len(results))
	}
	for _, r := range results {
		if !r.Degraded {
			t.Fatalf("session frame %d not flagged degraded: %+v", r.Index, r)
		}
	}
}

// TestChaosPlaneInferDegradedFlag checks the plane path of /v1/infer,
// which skips the micro-batcher and so reads the degraded state off the
// served model itself. Row 1 of tiny-mlp's output layer is stuck at a
// rail in every column, so the first checked apply (fc2 has 10 rows:
// ABFT stride 4) retires it. Each plane response must carry the degraded
// flag, in body and header, exactly when the layer is degraded.
func TestChaosPlaneInferDegradedFlag(t *testing.T) {
	plan := &lightator.FaultPlan{Name: "stuck-fc2-row"}
	for c := range 16 {
		plan.Faults = append(plan.Faults, lightator.Fault{
			Kind: "stuck_coeff", Target: "model:tiny-mlp/fc2", Row: 1, Col: c, Value: 0.95})
	}
	acc := chaosAccelerator(t, lightator.Physical, plan)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 2, AgreementFrames: -1})
	plane := lightator.EncodeImage(testCompressedPlane(7, 16, 16))
	for seed := range int64(32) {
		resp := postRaw(t, ts.URL+"/v1/infer", lightator.InferRequest{
			Plane: &plane, Model: "tiny-mlp", Envelope: lightator.Envelope{Seed: &seed}})
		var out lightator.InferResponse
		err := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d, decode error %v", seed, resp.StatusCode, err)
		}
		degraded := componentHealth(t, acc, "model:tiny-mlp/fc2").Degraded
		if out.Degraded != degraded {
			t.Errorf("seed %d: body degraded %v, layer degraded %v", seed, out.Degraded, degraded)
		}
		if got := resp.Header.Get("X-Lightator-Degraded") == "true"; got != degraded {
			t.Errorf("seed %d: X-Lightator-Degraded set %v, layer degraded %v", seed, got, degraded)
		}
		if degraded {
			return
		}
	}
	t.Fatal("the stuck row never degraded tiny-mlp/fc2 in 32 plane requests")
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
