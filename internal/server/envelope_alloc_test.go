//go:build !race

// Steady-state allocation pin for request ingest. The race detector
// instruments allocations and drops pooled buffers at random, so this
// runs only in the plain test pass (CI's non-race allocation step).
package server

import (
	"bytes"
	"io"
	"net/http/httptest"
	"runtime"
	"testing"
)

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
	r.ContentLength = int64(len(body))
	ingestOnce := func() {
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req ProcessRequest
		in, err := readEnvelope(r, &req)
		if err != nil {
			t.Fatal(err)
		}
		if in.at != &req.Scene {
			t.Fatal("a 256x256x3 process body missed the fast path")
		}
		raw, err := in.pixels(&req.Scene)
		if err != nil {
			t.Fatal(err)
		}
		if in.body != nil {
			t.Fatal("the body buffer is still checked out after its pixels were decoded")
		}
		putScene(imageFromRaw(req.Scene, raw))
		in.release()
	}
	ingestOnce() // warm the pools

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		ingestOnce()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	const bound = 64 << 10
	t.Logf("%.0f bytes allocated per ingest (image %d)", perRun, 8*256*256*3)
	if perRun > bound {
		t.Fatalf("ingest allocated %.0f bytes per body, want <= %d (64 KiB)", perRun, bound)
	}
}
