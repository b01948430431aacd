// End-to-end tests of /v1/infer and /v1/models, run through the public
// facade: the acceptance criterion is that a served inference response
// is bit-identical to the direct Infer (scene) / InferPlane (plane)
// call, no matter how the micro-batcher coalesces concurrent requests.
package server_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"lightator"
)

// inferWant marshals the expected /v1/infer body for the given logits.
func inferWant(t *testing.T, model string, logits []float64) []byte {
	t.Helper()
	class := 0
	for i, v := range logits {
		if v > logits[class] {
			class = i
		}
	}
	body, err := json.Marshal(lightator.InferResponse{Model: model, Logits: logits, Class: class})
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// testCompressedPlane builds a deterministic single-channel plane of the
// accelerator's CA measurement geometry.
func testCompressedPlane(seed int64, h, w int) *lightator.Image {
	rng := rand.New(rand.NewSource(seed))
	p := lightator.NewImage(h, w, 1)
	for i := range p.Pix {
		p.Pix[i] = rng.Float64()
	}
	return p
}

// TestConcurrentInferMatchesFacade is the acceptance-criterion test:
// concurrent clients hitting /v1/infer across every registered model and
// both input kinds — so scene requests for the same model coalesce into
// shared micro-batches while plane requests bypass batching — get
// responses byte-identical to direct facade calls, in every fidelity.
func TestConcurrentInferMatchesFacade(t *testing.T) {
	const clients = 12
	for _, fid := range []lightator.Fidelity{lightator.Ideal, lightator.Physical, lightator.PhysicalNoisy} {
		t.Run(fid.String(), func(t *testing.T) {
			acc := testAccelerator(t, fid)
			names := acc.Models()
			if len(names) == 0 {
				t.Fatal("no registered models")
			}
			cfg := acc.Config()
			planeH := cfg.SensorRows / cfg.CAPool
			planeW := cfg.SensorCols / cfg.CAPool
			_, ts := testServer(t, acc, lightator.ServeOptions{
				Workers: 2, BatchSize: 3, BatchDelay: 5 * time.Millisecond, CacheEntries: -1,
			})

			reqs := make([]lightator.InferRequest, clients)
			want := make([][]byte, clients)
			for i := range reqs {
				model := names[i%len(names)]
				if i%3 == 2 {
					// Every third client sends a pre-compressed plane.
					plane := testCompressedPlane(int64(300+i), planeH, planeW)
					logits, err := acc.InferPlane(plane, model)
					if err != nil {
						t.Fatal(err)
					}
					reqs[i] = lightator.InferRequest{Model: model, Plane: wirePtr(lightator.EncodeImage(plane))}
					want[i] = inferWant(t, model, logits)
					continue
				}
				scene := testScene(int64(300+i), 32, 32)
				logits, err := acc.Infer(scene, model)
				if err != nil {
					t.Fatal(err)
				}
				reqs[i] = lightator.InferRequest{Model: model, Scene: wirePtr(lightator.EncodeImage(scene))}
				want[i] = inferWant(t, model, logits)
			}

			got := make([][]byte, clients)
			var wg sync.WaitGroup
			for i := range reqs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					status, body := postJSON(t, ts.URL+"/v1/infer", reqs[i], nil)
					if status != http.StatusOK {
						t.Errorf("client %d (%s): status %d (%s)", i, reqs[i].Model, status, body)
						return
					}
					got[i] = body
				}(i)
			}
			wg.Wait()
			for i := range reqs {
				if got[i] == nil {
					t.Fatalf("client %d: no response", i)
				}
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("fidelity %v client %d (%s): served response differs from direct facade call",
						fid, i, reqs[i].Model)
				}
			}
		})
	}
}

func wirePtr(w lightator.ImageWire) *lightator.ImageWire { return &w }

// TestModelsEndpointAndInferErrors covers the registry listing and the
// /v1/infer error paths.
func TestModelsEndpointAndInferErrors(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchDelay: time.Millisecond})

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list lightator.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	names := acc.Models()
	if len(list.Models) != len(names) {
		t.Fatalf("registry lists %d models, facade has %d", len(list.Models), len(names))
	}
	cfg := acc.Config()
	for i, m := range list.Models {
		if m.Name != names[i] || m.Description == "" {
			t.Errorf("registry entry %d: %+v, want name %q with a description", i, m, names[i])
		}
		if m.InputH != cfg.SensorRows/cfg.CAPool || m.InputW != cfg.SensorCols/cfg.CAPool || m.Classes < 2 {
			t.Errorf("registry entry %d has implausible geometry: %+v", i, m)
		}
	}

	scene := lightator.EncodeImage(testScene(3, 32, 32))
	// Unknown model: 400 with the registry hint.
	if status, body := postJSON(t, ts.URL+"/v1/infer",
		lightator.InferRequest{Scene: &scene, Model: "nope"}, nil); status != http.StatusBadRequest {
		t.Errorf("unknown model got %d (%s), want 400", status, body)
	}
	// Neither scene nor plane, and both: 400.
	if status, _ := postJSON(t, ts.URL+"/v1/infer",
		lightator.InferRequest{Model: names[0]}, nil); status != http.StatusBadRequest {
		t.Error("empty infer request accepted")
	}
	if status, _ := postJSON(t, ts.URL+"/v1/infer",
		lightator.InferRequest{Scene: &scene, Plane: &scene, Model: names[0]}, nil); status != http.StatusBadRequest {
		t.Error("infer request with both scene and plane accepted")
	}
	// A plane of the wrong geometry: 400 from the model's input guard.
	wrong := lightator.EncodeImage(testCompressedPlane(5, 3, 3))
	if status, _ := postJSON(t, ts.URL+"/v1/infer",
		lightator.InferRequest{Plane: &wrong, Model: names[0]}, nil); status != http.StatusBadRequest {
		t.Error("mismatched plane accepted")
	}

	// Deterministic fidelity: the first repeat misses, the second is a
	// cache hit, all with identical bytes, and the model name is part of
	// the key.
	body1, _ := postRepeats(t, ts.URL+"/v1/infer", lightator.InferRequest{Scene: &scene, Model: names[0]})
	if len(names) > 1 {
		_, body3 := postJSON(t, ts.URL+"/v1/infer", lightator.InferRequest{Scene: &scene, Model: names[1]}, nil)
		if bytes.Equal(body1, body3) {
			t.Error("different models served identical bytes; model name must be in the cache key")
		}
	}
	m := srv.Metrics()
	if ep := m.Endpoints["/v1/infer"]; ep.CacheHits == 0 {
		t.Errorf("no cache hit in deterministic fidelity: %+v", ep)
	}
	if rep, ok := m.Infer[names[0]]; !ok || rep.Frames == 0 || rep.Infer.Count == 0 {
		t.Errorf("infer pipeline stats missing activity: %+v", m.Infer)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(text.Bytes(), []byte(`pipeline="infer:`+names[0]+`"`)) {
		t.Errorf("prometheus text missing per-model pipeline series:\n%s", text.String())
	}

	// CA disabled: 501, and the registry is empty (but present).
	cfg2 := lightator.DefaultConfig()
	cfg2.SensorRows, cfg2.SensorCols, cfg2.CAPool = 32, 32, 0
	noCA, err := lightator.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := testServer(t, noCA, lightator.ServeOptions{BatchDelay: time.Millisecond})
	if status, _ := postJSON(t, ts2.URL+"/v1/infer",
		lightator.InferRequest{Scene: &scene, Model: names[0]}, nil); status != http.StatusNotImplemented {
		t.Error("CA-disabled infer did not answer 501")
	}
	resp, err = http.Get(ts2.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var empty lightator.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&empty); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(empty.Models) != 0 {
		t.Errorf("CA-disabled registry lists %d models, want 0", len(empty.Models))
	}
}

// TestInferNoisyBypassesCacheButReproduces mirrors the process cache
// policy: PhysicalNoisy never touches the cache yet repeated requests
// reproduce bit-identically thanks to per-request seeding; an explicit
// seed changes the bytes.
func TestInferNoisyBypassesCacheButReproduces(t *testing.T) {
	acc := testAccelerator(t, lightator.PhysicalNoisy)
	srv, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchDelay: time.Millisecond})
	model := acc.Models()[0]
	scene := lightator.EncodeImage(testScene(17, 32, 32))
	req := lightator.InferRequest{Scene: &scene, Model: model}
	_, body1 := postJSON(t, ts.URL+"/v1/infer", req, nil)
	_, body2 := postJSON(t, ts.URL+"/v1/infer", req, nil)
	if !bytes.Equal(body1, body2) {
		t.Error("seeded noisy infer responses must still be reproducible")
	}
	seed := int64(4242)
	seeded := req
	seeded.Seed = &seed
	_, body3 := postJSON(t, ts.URL+"/v1/infer", seeded, nil)
	if bytes.Equal(body1, body3) {
		t.Error("explicit request seed did not change the noisy response")
	}
	if m := srv.Metrics(); m.Endpoints["/v1/infer"].CacheHits != 0 || m.Endpoints["/v1/infer"].CacheMisses != 0 {
		t.Errorf("cache touched in noisy fidelity: %+v", m.Endpoints["/v1/infer"])
	}
}
