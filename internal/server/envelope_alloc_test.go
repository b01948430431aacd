//go:build !race

// Allocation pins for request ingest. The race detector instruments
// allocations and drops pooled buffers at random, so these run only in
// the plain test pass (CI's non-race allocation step).
package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// ingestProcessBody reads body as r's /v1/process body, decodes it on
// the fast path and decodes its scene with a cache-key hash, as
// handleFrame does, returning the scene to its pool.
func ingestProcessBody(t *testing.T, req *http.Request, body []byte) {
	t.Helper()
	req.Body = io.NopCloser(bytes.NewReader(body))
	req.ContentLength = int64(len(body))
	var pr ProcessRequest
	in, err := readEnvelope(req, &pr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.release()
	if in.at != &pr.Scene {
		t.Fatal("a 256x256x3 process body missed the fast path")
	}
	img, err := in.scene(&pr.Scene, keyHash("process", 0))
	if err != nil {
		t.Fatal(err)
	}
	if in.body != nil {
		t.Fatal("the body buffer is still checked out after its scene was decoded")
	}
	putScene(img)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// drainPools empties every sync.Pool: one GC moves a pool's items to
// its victim cache, the next drops them.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

// TestEnvelopeIngestAllocFreeBeyondImage pins ingest's memory: once the
// pools are warm, reading a 256×256×3 /v1/process body, decoding it,
// materialising its scene and returning the scene to its pool allocates
// at most 64 KiB, against the scene's own 1.5 MB of float64 samples. The
// strict decode it replaced allocated ~12.5 MB per body: the decoder's
// growing read buffer, the 2 MB pix_b64 string and the base64 output.
func TestEnvelopeIngestAllocFreeBeyondImage(t *testing.T) {
	// sync.Pool keeps a per-P private slot that other Ps cannot steal,
	// so a goroutine that migrates between Ps misses the pool now and
	// then. One P measures the steady state itself.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body := processBody(t, 256, 256, "edge")
	r := httptest.NewRequest("POST", "/v1/process", nil)
	ingestProcessBody(t, r, body) // warm the pools

	const runs = 20
	perRun := float64(allocated(func() {
		for range runs {
			ingestProcessBody(t, r, body)
		}
	})) / runs
	const bound = 64 << 10
	t.Logf("%.0f bytes allocated per ingest (image %d)", perRun, 8*256*256*3)
	if perRun > bound {
		t.Fatalf("ingest allocated %.0f bytes per body, want <= %d (64 KiB)", perRun, bound)
	}
}

// TestSceneIngestAllocFreeOfRawSamples pins the scene's single copy:
// with the pools drained, one fast-path ingest of a 256×256×3 body
// allocates at most what reading the body alone does, plus the scene,
// plus 64 KiB. The pix_b64 value decodes straight into the scene and the
// cache key's hash, never into a buffer of raw sample bytes.
func TestSceneIngestAllocFreeOfRawSamples(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body := processBody(t, 256, 256, "edge")
	r := httptest.NewRequest("POST", "/v1/process", nil)
	drainPools()
	read := allocated(func() {
		p, err := readBody(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			t.Fatal(err)
		}
		putBuf(&bodyPool, p)
	})
	drainPools()
	ingest := allocated(func() { ingestProcessBody(t, r, body) })
	const scene, slack = 8 * 256 * 256 * 3, 64 << 10
	t.Logf("cold ingest allocated %d bytes: body read %d, scene %d", ingest, read, scene)
	if ingest > read+scene+slack {
		t.Fatalf("cold ingest allocated %d bytes, want <= %d (body read) + %d (scene) + %d", ingest, read, scene, slack)
	}
}
