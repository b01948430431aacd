// End-to-end tests of /v1/process and /v1/kernels, run through the
// public facade: the acceptance criterion is that a served kernel
// response is bit-identical to the direct ProcessCompressed call, no
// matter how the micro-batcher coalesces concurrent requests.
package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lightator"
)

// kernelAliases are the accepted names that resolve to reconstruct.
var kernelAliases = []string{"reconstruct-cg", "reconstruct-direct", "reconstruct-iter"}

// TestProcessAliasesServeReconstruct: at the default CAPool, /v1/process
// under every alias answers reconstruct's bytes and modelled energy,
// on reconstruct's pipeline and under its cache key — an alias request
// is the second sighting of a reconstruct key, and a third request under
// another alias is a hit — with no pipeline or energy series of its own.
func TestProcessAliasesServeReconstruct(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchDelay: time.Millisecond})
	post := func(scene *lightator.Image, kernel, wantCache string) ([]byte, string) {
		t.Helper()
		resp := postRaw(t, ts.URL+"/v1/process", lightator.NewProcessRequest(lightator.EncodeImage(scene), kernel, nil))
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", kernel, resp.StatusCode, buf.String())
		}
		if got := resp.Header.Get("X-Lightator-Cache"); got != wantCache {
			t.Errorf("%s: X-Lightator-Cache = %q, want %s", kernel, got, wantCache)
		}
		return buf.Bytes(), resp.Header.Get("X-Lightator-Energy-J")
	}
	for i, alias := range kernelAliases {
		scene := testScene(int64(5+i), 32, 32)
		want, energy := post(scene, "reconstruct", "miss")
		got, aliasEnergy := post(scene, alias, "miss")
		if !bytes.Equal(got, want) {
			t.Errorf("%s served bytes that differ from reconstruct's", alias)
		}
		if energy == "" || aliasEnergy != energy {
			t.Errorf("modelled energy: reconstruct %q, %s %q", energy, alias, aliasEnergy)
		}
		other := kernelAliases[(i+1)%len(kernelAliases)]
		if hit, _ := post(scene, other, "hit"); !bytes.Equal(hit, want) {
			t.Errorf("%s hit served bytes that differ from reconstruct's", other)
		}
	}
	m := srv.Metrics()
	if rep, want := m.Process["reconstruct"], 2*len(kernelAliases); rep.Frames != want {
		t.Errorf("reconstruct pipeline ran %d frames, want %d (half of them the aliases')", rep.Frames, want)
	}
	_, text := getBody(t, ts.URL+"/metrics")
	for _, alias := range kernelAliases {
		if _, ok := m.Process[alias]; ok {
			t.Errorf("alias %s has a pipeline of its own", alias)
		}
		if _, ok := m.Energy["process:"+alias]; ok {
			t.Errorf("alias %s has an energy gauge of its own", alias)
		}
		if strings.Contains(string(text), `"process:`+alias+`"`) {
			t.Errorf("/metrics exports a series for alias %s", alias)
		}
	}
}

// TestConcurrentProcessMatchesFacade is the acceptance-criterion test:
// concurrent clients hitting /v1/process across every registered kernel
// and alias — so requests for the same kernel coalesce into shared
// micro-batches —
// get responses byte-identical to direct facade ProcessCompressed calls,
// in every fidelity (the criterion demands the deterministic ones; the
// seeded pipeline delivers PhysicalNoisy too).
func TestConcurrentProcessMatchesFacade(t *testing.T) {
	const clients = 12
	for _, fid := range []lightator.Fidelity{lightator.Ideal, lightator.Physical, lightator.PhysicalNoisy} {
		t.Run(fid.String(), func(t *testing.T) {
			acc := testAccelerator(t, fid)
			names := acc.Kernels()
			if len(names) == 0 {
				t.Fatal("no registered kernels")
			}
			names = append(names, kernelAliases...)
			// Small batch size and a non-trivial delay force both size-
			// and deadline-triggered flushes; caching is disabled so every
			// response is a fresh pipeline trip.
			_, ts := testServer(t, acc, lightator.ServeOptions{
				Workers: 2, BatchSize: 3, BatchDelay: 5 * time.Millisecond, CacheEntries: -1,
			})

			scenes := make([]*lightator.Image, clients)
			kernels := make([]string, clients)
			want := make([][]byte, clients)
			for i := range scenes {
				scenes[i] = testScene(int64(200+i), 32, 32)
				kernels[i] = names[i%len(names)]
				out, err := acc.ProcessCompressed(scenes[i], kernels[i])
				if err != nil {
					t.Fatal(err)
				}
				body, err := json.Marshal(lightator.ProcessResponse{Plane: lightator.EncodeImage(out)})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = append(body, '\n')
			}

			got := make([][]byte, clients)
			var wg sync.WaitGroup
			for i := range scenes {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					status, body := postJSON(t, ts.URL+"/v1/process", lightator.NewProcessRequest(lightator.EncodeImage(scenes[i]), kernels[i], nil), nil)
					if status != http.StatusOK {
						t.Errorf("client %d (%s): status %d (%s)", i, kernels[i], status, body)
						return
					}
					got[i] = body
				}(i)
			}
			wg.Wait()
			for i := range scenes {
				if got[i] == nil {
					t.Fatalf("client %d: no response", i)
				}
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("fidelity %v client %d (%s): served response differs from direct ProcessCompressed",
						fid, i, kernels[i])
				}
			}
		})
	}
}

// TestKernelsEndpointAndProcessErrors covers the registry listing and
// the /v1/process error paths.
func TestKernelsEndpointAndProcessErrors(t *testing.T) {
	acc := testAccelerator(t, lightator.Physical)
	srv, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchDelay: time.Millisecond})

	resp, err := http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	var list lightator.KernelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Every name the wire has accepted stays listed, aliases included.
	names := []string{"denoise", "downsample2x", "edge", "reconstruct", "reconstruct-cg",
		"reconstruct-direct", "reconstruct-iter", "sharpen"}
	if len(list.Kernels) != len(names) {
		t.Fatalf("registry lists %+v, want %v", list.Kernels, names)
	}
	for i, k := range list.Kernels {
		if k.Name != names[i] || k.Description == "" {
			t.Errorf("registry entry %d: %+v, want name %q with a description", i, k, names[i])
		}
		if slices.Contains(kernelAliases, k.Name) != strings.HasPrefix(k.Description, "alias of reconstruct: ") {
			t.Errorf("registry entry %+v: only an alias's description names its target", k)
		}
	}

	// Unknown kernel: 400 with the registry hint.
	scene := lightator.EncodeImage(testScene(3, 32, 32))
	if status, body := postJSON(t, ts.URL+"/v1/process",
		lightator.NewProcessRequest(scene, "nope", nil), nil); status != http.StatusBadRequest {
		t.Errorf("unknown kernel got %d (%s), want 400", status, body)
	}

	// Deterministic fidelity: the first repeat misses, the second is a
	// cache hit, all with identical bytes, and the kernel name is part
	// of the key (edge != denoise).
	body1, _ := postRepeats(t, ts.URL+"/v1/process", lightator.NewProcessRequest(scene, "edge", nil))
	_, body3 := postJSON(t, ts.URL+"/v1/process", lightator.NewProcessRequest(scene, "denoise", nil), nil)
	if bytes.Equal(body1, body3) {
		t.Error("different kernels served identical bytes; kernel name must be in the cache key")
	}
	m := srv.Metrics()
	if ep := m.Endpoints["/v1/process"]; ep.CacheHits == 0 {
		t.Errorf("no cache hit in deterministic fidelity: %+v", ep)
	}
	if rep, ok := m.Process["edge"]; !ok || rep.Frames == 0 || rep.Kernel.Count == 0 {
		t.Errorf("process pipeline stats missing kernel activity: %+v", m.Process)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(text.Bytes(), []byte(`pipeline="process:edge"`)) {
		t.Errorf("prometheus text missing per-kernel pipeline series:\n%s", text.String())
	}

	// CA disabled: 501, and the registry is empty.
	cfg := lightator.DefaultConfig()
	cfg.SensorRows, cfg.SensorCols, cfg.CAPool = 32, 32, 0
	noCA, err := lightator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := testServer(t, noCA, lightator.ServeOptions{BatchDelay: time.Millisecond})
	if status, _ := postJSON(t, ts2.URL+"/v1/process",
		lightator.NewProcessRequest(scene, "edge", nil), nil); status != http.StatusNotImplemented {
		t.Errorf("CA-disabled process got %d, want 501", status)
	}
	resp, err = http.Get(ts2.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	var empty lightator.KernelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&empty); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(empty.Kernels) != 0 {
		t.Errorf("CA-disabled registry lists %d kernels, want 0", len(empty.Kernels))
	}
}

// TestProcessNoisyBypassesCacheButReproduces mirrors the compress cache
// policy: PhysicalNoisy never touches the cache yet repeated requests
// reproduce bit-identically thanks to per-request seeding.
func TestProcessNoisyBypassesCacheButReproduces(t *testing.T) {
	acc := testAccelerator(t, lightator.PhysicalNoisy)
	srv, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchDelay: time.Millisecond})
	req := lightator.NewProcessRequest(lightator.EncodeImage(testScene(17, 32, 32)), "reconstruct", nil)
	_, body1 := postJSON(t, ts.URL+"/v1/process", req, nil)
	_, body2 := postJSON(t, ts.URL+"/v1/process", req, nil)
	if !bytes.Equal(body1, body2) {
		t.Error("seeded noisy process responses must still be reproducible")
	}
	// An explicit seed changes the noise, and therefore the bytes.
	seed := int64(4242)
	seeded := req
	seeded.Seed = &seed
	_, body3 := postJSON(t, ts.URL+"/v1/process", seeded, nil)
	if bytes.Equal(body1, body3) {
		t.Error("explicit request seed did not change the noisy response")
	}
	if m := srv.Metrics(); m.Endpoints["/v1/process"].CacheHits != 0 || m.Endpoints["/v1/process"].CacheMisses != 0 {
		t.Errorf("cache touched in noisy fidelity: %+v", m.Endpoints["/v1/process"])
	}
}
