package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
)

// responseCache is a content-addressed LRU over marshaled response bodies.
// Keys hash the full request content (endpoint, seed, raw sample bytes),
// so a hit replays the exact bytes a fresh computation would produce —
// safe only because every cached endpoint is deterministic in its key
// (the server skips the cache for noisy compress/matvec; see Server).
//
// A body is admitted on its key's second sighting. The first put of a
// key stores the key alone: a body-less entry in the same LRU, counted
// against the same entry bound. Only a second put stores the body, so a
// key that is never repeated never holds bytes, while a hot key keeps
// its body until cap newer distinct keys have been seen, as it would if
// every body were stored. The price is that a key's first repeat misses.
//
// Eviction is double-bounded: by entry count and by total body bytes,
// because bodies are client-sized (a matvec response can be megabytes) —
// an entry-count bound alone would let a few hundred large responses pin
// unbounded memory.
type responseCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int
	bytes    int
	bodies   int        // entries holding a body
	ll       *list.List // front = most recently used
	items    map[cacheKey]*list.Element
}

// cacheMaxBytes bounds the total cached body bytes regardless of the
// entry cap.
const cacheMaxBytes = 64 << 20

type cacheKey [sha256.Size]byte

// cacheEntry is one key; body is nil until the key's second sighting.
type cacheEntry struct {
	key  cacheKey
	body []byte
}

// newResponseCache returns nil when capacity <= 0 (cache disabled); the
// nil receiver is safe on every method.
func newResponseCache(capacity int) *responseCache {
	if capacity <= 0 {
		return nil
	}
	return &responseCache{
		cap:      capacity,
		maxBytes: cacheMaxBytes,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
	}
}

// hashRequest builds a cache key from an endpoint tag, the effective seed
// and the request's content bytes.
func hashRequest(endpoint string, seed int64, parts ...[]byte) cacheKey {
	h := keyHash(endpoint, seed)
	for _, p := range parts {
		writePart(h, p)
	}
	return sumKey(h)
}

// keyHash starts a cache key: the endpoint tag and the effective seed.
// Parts follow through writePart, or as writeUint64 of their length and
// then their bytes when they arrive in pieces (ingest.scene).
func keyHash(endpoint string, seed int64) hash.Hash {
	h := sha256.New()
	h.Write([]byte(endpoint))
	writeUint64(h, uint64(seed))
	return h
}

// writePart writes one content part, length-prefixed so concatenations
// can't collide.
func writePart(h hash.Hash, p []byte) {
	writeUint64(h, uint64(len(p)))
	h.Write(p)
}

// writeUint64 writes v little-endian.
func writeUint64(h hash.Hash, v uint64) {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], v)
	h.Write(s[:])
}

// sumKey finishes a key started by keyHash.
func sumKey(h hash.Hash) cacheKey {
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// get returns the cached body and marks it most recently used. A key
// seen once holds no body yet, so it misses.
func (c *responseCache) get(key cacheKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*cacheEntry).body == nil {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put records a sighting of key with its body: the first stores the key
// alone, a later one the body. It then evicts least recently used
// entries while the entry bound is exceeded, and least recently used
// bodies while the byte bound is. Bodies larger than the whole byte
// budget are not cached at all.
func (c *responseCache) put(key cacheKey, body []byte) {
	if c == nil || len(body) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		if e.body == nil {
			c.bodies++
		}
		c.bytes += len(body) - len(e.body)
		e.body = body
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key})
	}
	for c.ll.Len() > c.cap {
		c.remove(c.ll.Back())
	}
	// Body-less entries free no bytes, so the byte bound skips them.
	for el := c.ll.Back(); c.bytes > c.maxBytes; {
		prev := el.Prev()
		if el.Value.(*cacheEntry).body != nil {
			c.remove(el)
		}
		el = prev
	}
}

// remove drops one entry; c.mu must be held.
func (c *responseCache) remove(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	if e.body != nil {
		c.bodies--
		c.bytes -= len(e.body)
	}
}

// len reports the number of bodies held; keys seen once do not count.
func (c *responseCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bodies
}

// capacity reports the configured entry bound (0 when disabled).
func (c *responseCache) capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// sizeBytes reports the current total cached body bytes.
func (c *responseCache) sizeBytes() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
