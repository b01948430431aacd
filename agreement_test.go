package lightator_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lightator"
	"lightator/internal/infer"
)

// TestModelAgreementAcrossCAPools pins the end-to-end optical fidelity
// of the built-in model zoo: at every served compression ratio the
// optical top-1 agreement against the digital-quantized reference must
// clear the zoo's floors (tiny-cnn >= 0.90, tiny-mlp >= 0.75) on the
// same structured-scene sweep the bench and GET /v1/models report.
// Before the calibrated apply path, tiny-mlp sat at ~0.19 — wide dense
// rows accumulate systematic crosstalk loss linearly with width.
// At DefaultConfig — what lightator-serve reports by default — every
// model's agreement is pinned exactly at 1.
func TestModelAgreementAcrossCAPools(t *testing.T) {
	floors := map[string]float64{
		"tiny-cnn": 0.90,
		"tiny-mlp": 0.75,
	}
	def := lightator.DefaultConfig().CAPool
	for _, pool := range []int{def, 4, 8, 16} {
		cfg := lightator.DefaultConfig()
		cfg.CAPool = pool
		acc, err := lightator.New(cfg)
		if err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		for model, floor := range floors {
			if pool == def {
				floor = 1
			}
			agree, err := acc.ModelAgreement(model, lightator.DefaultAgreementFrames)
			if err != nil {
				t.Fatalf("pool %d %s: %v", pool, model, err)
			}
			if agree < floor {
				t.Errorf("pool %d: %s agreement %.3f below floor %.2f", pool, model, agree, floor)
			}
		}
	}
}

// TestModelAgreementErrors: unknown models are rejected, and a
// non-positive frame count falls back to the default sweep size.
func TestModelAgreementErrors(t *testing.T) {
	acc, err := lightator.New(lightator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.ModelAgreement("no-such-model", 4); err == nil {
		t.Fatal("unknown model accepted")
	}
	a, err := acc.ModelAgreement("tiny-mlp", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := acc.ModelAgreement("tiny-mlp", lightator.DefaultAgreementFrames)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("frames<=0 should use the default sweep: %v vs %v", a, b)
	}
}

// oldAgreement is the per-model formulation the shared sweep replaced:
// capture + CA + model over the whole scene batch, the digital reference
// over each compressed plane, then infer.Agreement.
func oldAgreement(t *testing.T, acc *lightator.Accelerator, model string, frames int) float64 {
	t.Helper()
	cfg := acc.Config()
	scenes := infer.DiskScenes(frames, cfg.SensorRows, cfg.SensorCols, cfg.Seed)
	optical, err := acc.InferBatch(scenes, model, 2)
	if err != nil {
		t.Fatal(err)
	}
	planes, err := acc.AcquireCompressedBatch(scenes, 2)
	if err != nil {
		t.Fatal(err)
	}
	reference := make([][]float64, len(planes))
	for i, p := range planes {
		if reference[i], err = acc.InferReference(p, model); err != nil {
			t.Fatal(err)
		}
	}
	return infer.Agreement(optical, reference)
}

// servedAgreements builds a server with the given sweep size and returns
// GET /v1/models' reference_agreement per model.
func servedAgreements(t *testing.T, acc *lightator.Accelerator, frames int) map[string]float64 {
	t.Helper()
	srv, err := acc.NewServer(lightator.ServeOptions{Workers: 2, AgreementFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/models: %d %s", rec.Code, rec.Body)
	}
	var resp lightator.ModelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range resp.Models {
		if m.ReferenceAgreement == nil {
			t.Fatalf("model %s listed without reference_agreement", m.Name)
		}
		out[m.Name] = *m.ReferenceAgreement
	}
	return out
}

// TestServedAgreementMatchesPerModelSweep: the shared sweep behind
// GET /v1/models and ModelAgreement reports, for every model and
// fidelity, exactly the agreement of the per-model formulation (InferBatch
// + AcquireCompressedBatch + InferReference + infer.Agreement). The
// PhysicalNoisy case lands below 1 (tiny-cnn 0.875), so a sweep that ran
// the models under the wrong seed chain would not match.
func TestServedAgreementMatchesPerModelSweep(t *testing.T) {
	const frames = 16
	below := false
	for _, fid := range []lightator.Fidelity{lightator.Ideal, lightator.Physical, lightator.PhysicalNoisy} {
		cfg := lightator.DefaultConfig()
		cfg.Fidelity = fid
		cfg.Seed = 12345
		cfg.SensorRows, cfg.SensorCols = 64, 64
		acc, err := lightator.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		served := servedAgreements(t, acc, frames)
		if len(served) != len(acc.Models()) {
			t.Fatalf("%v: served %d models, registered %d", fid, len(served), len(acc.Models()))
		}
		for _, model := range acc.Models() {
			one, err := acc.ModelAgreement(model, frames)
			if err != nil {
				t.Fatal(err)
			}
			old := oldAgreement(t, acc, model, frames)
			if served[model] != one || one != old {
				t.Errorf("%v %s: served %v, ModelAgreement %v, per-model formulation %v", fid, model, served[model], one, old)
			}
			below = below || old < 1
		}
	}
	if !below {
		t.Fatal("every agreement is 1: the sweep comparison cannot catch a wrong seed chain")
	}
}

// TestServerAgreementSweepSharesCapture: NewServer measures all its
// models in one sweep, so each agreement frame passes the CA bank once —
// its ABFT checks rise by exactly one capture+CA pass over the sweep's
// scenes, not by one pass per model. (The per-frame count depends on the
// frame's content and seed, so the pass is replayed, not extrapolated.)
func TestServerAgreementSweepSharesCapture(t *testing.T) {
	const frames = 5
	cfg := lightator.DefaultConfig()
	cfg.SensorRows, cfg.SensorCols = 64, 64
	acc, err := lightator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.Models()) < 2 {
		t.Fatalf("need at least two models to share a sweep, have %v", acc.Models())
	}
	checks := func() int64 {
		for _, h := range acc.Health() {
			if h.Label == "ca" {
				return h.Checks
			}
		}
		return 0
	}
	before := checks()
	srv, err := acc.NewServer(lightator.ServeOptions{Workers: 2, AgreementFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	sweep := checks() - before
	scenes := infer.DiskScenes(frames, cfg.SensorRows, cfg.SensorCols, cfg.Seed)
	if _, err := acc.AcquireCompressedBatch(scenes, 1); err != nil {
		t.Fatal(err)
	}
	pass := checks() - before - sweep
	if pass == 0 || sweep != pass {
		t.Fatalf("NewServer ran %d ca ABFT checks, want one pass over its %d frames (%d)", sweep, frames, pass)
	}
}
