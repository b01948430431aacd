package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// testKey derives a distinct cache key from n.
func testKey(n int) cacheKey {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	return hashRequest("test", 0, b[:])
}

// defaultCacheEntries is the server's default entry bound.
const defaultCacheEntries = 256

// TestCacheAdmitsOnSecondSighting: the first put stores only the key, so
// a get still misses; the second put stores the body, which then hits.
func TestCacheAdmitsOnSecondSighting(t *testing.T) {
	c := newResponseCache(defaultCacheEntries)
	k, body := testKey(1), []byte(`{"a":1}`)
	if _, ok := c.get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.put(k, body)
	if _, ok := c.get(k); ok {
		t.Fatal("a key seen once hit: its entry holds no body")
	}
	if c.len() != 0 || c.sizeBytes() != 0 {
		t.Fatalf("a key seen once counts as a body: len %d, %d bytes", c.len(), c.sizeBytes())
	}
	c.put(k, body)
	got, ok := c.get(k)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("second sighting not admitted: %q, %v", got, ok)
	}
	if c.len() != 1 || c.sizeBytes() != len(body) {
		t.Fatalf("one body held: len %d, %d bytes, want 1, %d", c.len(), c.sizeBytes(), len(body))
	}
	// A third put replaces the body and counts it once.
	c.put(k, []byte(`{"a":22}`))
	if c.len() != 1 || c.sizeBytes() != len(`{"a":22}`) {
		t.Fatalf("replaced body: len %d, %d bytes", c.len(), c.sizeBytes())
	}
}

// TestCacheHotBodyLifetime: a held body outlives exactly cap-1 newer
// distinct keys, body-less ones included, and the cap-th evicts it.
func TestCacheHotBodyLifetime(t *testing.T) {
	if got := (Config{}).withDefaults().CacheEntries; got != defaultCacheEntries {
		t.Fatalf("server default cache bound %d, want %d", got, defaultCacheEntries)
	}
	for _, newer := range []int{defaultCacheEntries - 1, defaultCacheEntries} {
		c := newResponseCache(defaultCacheEntries)
		hot := testKey(-1)
		c.put(hot, []byte("hot"))
		c.put(hot, []byte("hot"))
		for n := range newer {
			c.put(testKey(n), []byte("cold"))
		}
		_, ok := c.get(hot)
		if want := newer < defaultCacheEntries; ok != want {
			t.Errorf("after %d newer keys: hot body held %v, want %v", newer, ok, want)
		}
		if c.ll.Len() > defaultCacheEntries {
			t.Errorf("%d entries, bound %d", c.ll.Len(), defaultCacheEntries)
		}
	}
}

// TestCacheByteBound: when the bodies exceed the byte bound, the least
// recently used body goes, not the body-less keys behind it.
func TestCacheByteBound(t *testing.T) {
	c := newResponseCache(defaultCacheEntries)
	if c.maxBytes != 64<<20 {
		t.Fatalf("byte bound %d, want 64 MB", c.maxBytes)
	}
	c.maxBytes = 100
	body := bytes.Repeat([]byte("x"), 40)
	seen := testKey(100)
	c.put(seen, body) // body-less, least recently used of all
	for n := range 3 {
		c.put(testKey(n), body)
		c.put(testKey(n), body)
	}
	// Three 40-byte bodies exceed 100 bytes: key 0's body was evicted.
	if _, ok := c.get(testKey(0)); ok {
		t.Error("the least recently used body survived the byte bound")
	}
	for n := 1; n < 3; n++ {
		if _, ok := c.get(testKey(n)); !ok {
			t.Errorf("body %d evicted, want only the least recently used one gone", n)
		}
	}
	if _, ok := c.items[seen]; !ok {
		t.Error("the byte bound evicted a body-less key")
	}
	if c.len() != 2 || c.sizeBytes() != 80 {
		t.Errorf("len %d, %d bytes, want 2 bodies, 80 bytes", c.len(), c.sizeBytes())
	}
}

// TestCacheRefusesOversizedBody: a body over the 64 MB byte bound is
// never stored, however often its key is seen.
func TestCacheRefusesOversizedBody(t *testing.T) {
	c := newResponseCache(defaultCacheEntries)
	k, big := testKey(1), make([]byte, cacheMaxBytes+1)
	for range 3 {
		c.put(k, big)
	}
	if _, ok := c.get(k); ok {
		t.Fatal("an oversized body was stored")
	}
	if c.len() != 0 || c.sizeBytes() != 0 {
		t.Fatalf("len %d, %d bytes after oversized puts, want 0, 0", c.len(), c.sizeBytes())
	}
}

// TestStreamedKeyMatchesHashRequest: the key handleFrame streams while a
// scene decodes equals hashRequest over the decoded samples' bytes, the
// way keys were built when ingest kept the raw bytes, on every frame
// endpoint and on both decode paths. The scenes are wide enough to cross
// a b64Stride boundary.
func TestStreamedKeyMatchesHashRequest(t *testing.T) {
	// The resolvers only look the routes up; their batchers never run
	// here.
	s := &Server{routes: map[string]*route{
		"capture":        {b: &batcher{}},
		"compress":       {b: &batcher{}},
		"process:edge":   {b: &batcher{}},
		"infer:tiny-cnn": {b: &batcher{}},
	}}
	scene, plane := wireScene(1, 256, 3), wireScene(1, 600, 1)
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	resolve := func(endpoint string, body []byte) (frameOp, ingest) {
		r := httptest.NewRequest("POST", endpoint, bytes.NewReader(body))
		var op frameOp
		var in ingest
		var err error
		switch endpoint {
		case "/v1/capture":
			var req CaptureRequest
			if in, err = readEnvelope(r, &req); err == nil {
				op, err = s.captureOp(&req)
			}
		case "/v1/compress":
			var req CompressRequest
			if in, err = readEnvelope(r, &req); err == nil {
				op, err = s.compressOp(&req)
			}
		case "/v1/process":
			var req ProcessRequest
			if in, err = readEnvelope(r, &req); err == nil {
				op, err = s.processOp(&req)
			}
		default:
			var req InferRequest
			if in, err = readEnvelope(r, &req); err == nil {
				op, err = s.inferOp(&req)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", endpoint, err)
		}
		return op, in
	}
	for _, tc := range []struct {
		name, endpoint, tag string
		body                []byte
	}{
		{"capture", "/v1/capture", "capture", mustJSON(NewCaptureRequest(scene, nil))},
		{"compress", "/v1/compress", "compress", mustJSON(NewCompressRequest(scene, nil))},
		{"process", "/v1/process", "process", mustJSON(NewProcessRequest(scene, "edge", nil))},
		{"infer-scene", "/v1/infer", "infer-scene", mustJSON(InferRequest{Scene: &scene, Model: "tiny-cnn"})},
		{"infer-plane", "/v1/infer", "infer-plane", mustJSON(InferRequest{Plane: &plane, Model: "tiny-cnn"})},
	} {
		// An escaped spelling of the key sends the body down the strict
		// path.
		strict := bytes.Replace(tc.body, []byte(`"pix_b64":`), []byte(`"pix\u005fb64":`), 1)
		for path, body := range map[string][]byte{"fast": tc.body, "strict": strict} {
			t.Run(tc.name+"/"+path, func(t *testing.T) {
				op, in := resolve(tc.endpoint, body)
				defer in.release()
				if (in.at != nil) != (path == "fast") {
					t.Fatalf("fast path taken = %v", in.at != nil)
				}
				if op.tag != tc.tag {
					t.Fatalf("tag %q, want %q", op.tag, tc.tag)
				}
				img, key, err := op.scene(&in, true)
				if err != nil {
					t.Fatal(err)
				}
				parts := append(append([][]byte{}, op.parts...), floatBytes(img.Pix), dimBytes(img.H, img.W, img.C))
				if want := hashRequest(op.tag, 0, parts...); key != want {
					t.Fatalf("streamed key %x, want hashRequest's %x", key, want)
				}
			})
		}
	}
}
