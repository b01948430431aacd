//go:build !race

// The scene pool across whole requests. The race detector drops pooled
// values at random, so this runs only in the plain test pass (CI's
// non-race allocation step).
package server_test

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"lightator"
	"lightator/internal/server"
)

// TestFrameSceneAllocFreeOnEveryOutcome: every frame request hands the
// scene it decoded back to the pool, whatever its outcome: a cache
// miss, a cache hit (which decodes a scene it never reads) or an
// invalid image, on each frame endpoint. A scene parked in the pool
// before a request is the one found there after it, so the next request
// allocates none. The repeats still go miss, miss, hit.
func TestFrameSceneAllocFreeOnEveryOutcome(t *testing.T) {
	// One P and no GC: the pool's per-P slot and its contents stay put
	// between the park and the check.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	acc := testAccelerator(t, lightator.Physical)
	_, ts := testServer(t, acc, lightator.ServeOptions{Workers: 1, BatchDelay: time.Millisecond, AgreementFrames: -1})
	cfg := acc.Config()
	model := acc.Models()[0]
	// 32x32x3 samples are 32768 base64 characters: eight decode strides.
	scene := lightator.EncodeImage(testScene(11, cfg.SensorRows, cfg.SensorCols))
	plane := lightator.EncodeImage(testCompressedPlane(12, cfg.SensorRows/cfg.CAPool, cfg.SensorCols/cfg.CAPool))
	parked := lightator.NewImage(cfg.SensorRows, cfg.SensorCols, 3)
	// expectParked runs one request with only parked in the pool and
	// fails unless parked is back there afterwards.
	expectParked := func(name string, request func()) {
		t.Helper()
		for server.PooledScene() != nil {
		}
		server.PoolScene(parked)
		request()
		if got := server.PooledScene(); got != parked {
			t.Fatalf("%s: the pooled scene did not come back (pool holds %p, parked %p)", name, got, parked)
		}
	}
	for _, ep := range []struct {
		name, path string
		req        any
	}{
		{"capture", "/v1/capture", lightator.NewCaptureRequest(scene, nil)},
		{"compress", "/v1/compress", lightator.NewCompressRequest(scene, nil)},
		{"process", "/v1/process", lightator.NewProcessRequest(scene, "edge", nil)},
		{"infer-scene", "/v1/infer", lightator.InferRequest{Scene: &scene, Model: model}},
		{"infer-plane", "/v1/infer", lightator.InferRequest{Plane: &plane, Model: model}},
	} {
		for i, want := range []string{"miss", "miss", "hit"} {
			expectParked(ep.name+" "+want, func() {
				resp := postRaw(t, ts.URL+ep.path, ep.req)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s request %d: status %d", ep.name, i+1, resp.StatusCode)
				}
				if got := resp.Header.Get("X-Lightator-Cache"); got != want {
					t.Errorf("%s request %d: X-Lightator-Cache = %q, want %s", ep.name, i+1, got, want)
				}
			})
		}
	}
	// Invalid images: dims the value cannot fill (refused before a scene
	// is taken) and a corrupt byte deep in a value of the right length
	// (refused mid-decode, after one is).
	corrupt := []byte(scene.Pix)
	corrupt[len(corrupt)/2] = '!'
	for name, w := range map[string]lightator.ImageWire{
		"short value":  {H: scene.H, W: scene.W + 1, C: 3, Pix: scene.Pix},
		"corrupt byte": {H: scene.H, W: scene.W, C: 3, Pix: string(corrupt)},
	} {
		expectParked(name, func() {
			resp := postRaw(t, ts.URL+"/v1/process", lightator.NewProcessRequest(w, "edge", nil))
			defer resp.Body.Close()
			var e server.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Code != server.CodeInvalidImage {
				t.Fatalf("%s: status %d, code %q (%v)", name, resp.StatusCode, e.Code, err)
			}
			if !strings.Contains(e.Detail+e.Message, "pixel data") {
				t.Errorf("%s: error %+v does not name the pixel data", name, e)
			}
		})
	}
}
