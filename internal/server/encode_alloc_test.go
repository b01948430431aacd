//go:build !race

// Allocation pins for response encoding. The race detector drops pooled
// values at random, so these run only in the plain test pass (CI's
// non-race allocation step).
package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"lightator"
	"lightator/internal/server"
)

// largestAllocation runs f, which makes n responses, with every
// allocation profiled, and returns the largest mean object size among
// the sites f allocated at once per response or more, with the site's
// innermost function. The collections the profile needs empty the
// buffer pools, so f also refills them; a refill allocates once per
// pool, not once per response, and is left out.
func largestAllocation(n int64, f func()) (int64, string) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocSites()
	f()
	var size int64
	var site string
	for stk, r := range allocSites() {
		b := before[stk]
		if k := r.AllocObjects - b.AllocObjects; k >= n {
			if mean := (r.AllocBytes - b.AllocBytes) / k; mean > size {
				size, site = mean, runtime.FuncForPC(r.Stack()[0]).Name()
			}
		}
	}
	return size, site
}

// allocSites snapshots the heap profile by allocation stack. An
// allocation enters the profile two collections after it is made.
func allocSites() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	sites := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		sites[r.Stack0] = r
	}
	return sites
}

// TestImageResponseAllocFree pins the response encode to no allocation
// the size of the body: a warm 256x256 /v1/process reconstruct request,
// and a warm 256x256 reconstruct session's process records, allocate no
// object as large as the plane's base64 payload once per response. The
// body is appended into a pooled buffer. The encode it replaced
// allocated ~2.7 MB per response: the samples' bytes, their base64
// string, json.Marshal's growing buffer and its copy of that buffer,
// the last three each at least the payload's size.
func TestImageResponseAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newSessionStreamer(t)
	s.kernel = "reconstruct"
	body, err := json.Marshal(lightator.NewProcessRequest(lightator.EncodeImage(testScene(21, 256, 256)), "reconstruct", nil))
	if err != nil {
		t.Fatal(err)
	}
	first := serveRecorded(s.h, http.MethodPost, "/v1/process", bytes.NewReader(body))
	var pr server.ProcessResponse
	if first.Code != http.StatusOK || json.Unmarshal(first.Body.Bytes(), &pr) != nil {
		t.Fatalf("process: %d %.200s", first.Code, first.Body.String())
	}
	if pr.Plane.H != 256 || pr.Plane.W != 256 {
		t.Fatalf("reconstruct plane %dx%d, want 256x256", pr.Plane.H, pr.Plane.W)
	}
	payload := int64(len(pr.Plane.Pix))
	post := func() {
		w := lineCounter{header: http.Header{}}
		s.h.ServeHTTP(&w, httptest.NewRequest(http.MethodPost, "/v1/process", bytes.NewReader(body)))
		if w.lines != 1 {
			t.Fatalf("process: %d lines written, want the body's one", w.lines)
		}
	}
	post()
	size, site := largestAllocation(4, func() {
		for range 4 {
			post()
		}
	})
	t.Logf("/v1/process: largest allocation %d bytes at %s (payload %d)", size, site, payload)
	if size >= payload {
		t.Errorf("a warm /v1/process reconstruct response allocated a %d-byte object at %s, want none as large as its %d-byte payload", size, site, payload)
	}

	s.frames(2)
	size, site = largestAllocation(8, func() { s.frames(8) })
	t.Logf("session: largest allocation %d bytes at %s (payload %d)", size, site, payload)
	if size >= payload {
		t.Errorf("warm reconstruct session records allocated a %d-byte object at %s, want none as large as the %d-byte payload", size, site, payload)
	}
}

// TestEncodeImageAllocFree pins EncodeImage to one allocation, the
// returned string: the samples are encoded into a pooled buffer.
func TestEncodeImageAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	im := testScene(21, 256, 256)
	if n := testing.AllocsPerRun(10, func() { server.EncodeImage(im) }); n != 1 {
		t.Fatalf("EncodeImage made %v allocations per call, want 1 (the returned string)", n)
	}
}
