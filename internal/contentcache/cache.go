// Package contentcache is the fleet-level reading of VR-DANN's reuse
// insight: the paper computes NN work once per stream and reuses decoder
// by-products across frames; at serving scale many sessions decode the
// same popular bits, so the masks themselves can be computed once per
// *content* and fanned out to every session serving identical bytes.
//
// The cache is content-addressed: a key is (chunk-byte digest, display
// index within the chunk, model fingerprint). Chunks are independently
// encoded and GOP-aligned and every engine starts a chunk from a fresh (or
// bit-identically Reset) decoder, so equal bytes + equal models imply
// equal masks — a hit is bit-identical to computing, by construction, and
// a corrupted copy of popular content hashes to its own keys and can never
// alias the clean entries.
//
// Concurrency follows single-flight: the first session to miss a key
// becomes its filler and computes; sessions hitting the same key while the
// fill is open wait for it instead of duplicating the work (closed-loop
// viewers of the same content march in lockstep, so without this every
// viewer would compute every frame concurrently and nothing would be
// saved). A fill commits only from a cleanly completed engine step; a
// failed step abandons it, waking waiters to compute locally (one of them
// re-claims the fill) — a poisoned session can never publish a mask it did
// not finish computing.
//
// Eviction is LRU by popularity under a byte budget: every hit front-moves
// the entry, so hot content stays resident and the budget evicts the
// coldest keys first.
package contentcache

import (
	"container/list"
	"context"
	"sync"

	"vrdann/internal/obs"
	"vrdann/internal/video"
)

// Key addresses one cached mask.
type Key struct {
	// Content is the codec.ChunkDigest of the whole chunk's bytes.
	Content uint64
	// Display is the frame's display index within the chunk.
	Display int
	// Model fingerprints everything besides the bytes that shapes the mask:
	// segmenter identity, refinement network, skip configuration. Sessions
	// with equal fingerprints serving equal bytes must compute equal masks.
	Model uint64
}

// Fingerprint hashes a model/config description into a Key.Model value
// (FNV-1a 64 over the parts, NUL-separated).
func Fingerprint(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint64(p[i])) * prime64
		}
		h = (h ^ 0) * prime64
	}
	return h
}

// AdaptedFingerprint derives the Model fingerprint for a session serving
// adapted (online fine-tuned) weights: the base model fingerprint mixed
// with the owning session's identity and a monotonically increasing weights
// version. The session identity is mixed in even at version 0, so an
// adaptation-enabled session never shares cache entries with base-model
// sessions — its weights can change underneath a fill — and two sessions
// that adapted independently never share entries with each other, even at
// equal version numbers.
func AdaptedFingerprint(base uint64, session string, version uint64) uint64 {
	const prime64 = 1099511628211
	h := base
	for i := 0; i < len(session); i++ {
		h = (h ^ uint64(session[i])) * prime64
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (version >> (8 * i) & 0xFF)) * prime64
	}
	// Distinguish the adapted keyspace from any plain Fingerprint output.
	return (h ^ 0xAD) * prime64
}

// entryOverhead approximates the per-entry bookkeeping bytes charged
// against the budget on top of the mask pixels.
const entryOverhead = 96

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes is the byte budget for resident masks (pixels plus a small
	// per-entry overhead). <= 0 selects the 256 MiB default.
	MaxBytes int64
	// Obs, when non-nil, receives the cache/* counters (hits, misses,
	// evictions, bytes-saved, fill-aborts) and the cache-entries /
	// cache-bytes / cache-waiters gauges. Typically the server-wide
	// collector, so the numbers surface in /metrics.
	Obs *obs.Collector
}

// Cache is a content-addressed, single-flight, LRU-evicted mask cache.
// Safe for concurrent use. Masks handed out are shared and must be treated
// as immutable by all holders (the pipeline never mutates emitted masks).
type Cache struct {
	maxBytes int64
	obs      *obs.Collector

	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	fills   map[Key]*Fill
}

type entry struct {
	key   Key
	mask  *video.Mask
	bytes int64
}

// New constructs an empty cache.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	return &Cache{
		maxBytes: cfg.MaxBytes,
		obs:      cfg.Obs,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		fills:    make(map[Key]*Fill),
	}
}

// Fill is the single-flight ticket for one in-progress computation. The
// owner computes the mask and resolves the fill with exactly one Commit or
// Abandon; non-owners Wait on it.
type Fill struct {
	c    *Cache
	key  Key
	done chan struct{}
	mask *video.Mask // nil after Abandon
}

// Acquire looks a key up. On a hit it returns the cached mask (counted,
// front-moved). On a miss it returns a Fill: owner == true means the
// caller claimed the fill and must compute the mask and then Commit or
// Abandon it; owner == false means another caller is already computing —
// Wait on the fill instead of duplicating the work.
func (c *Cache) Acquire(key Key) (m *video.Mask, f *Fill, owner bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*entry)
		c.mu.Unlock()
		c.obs.Count(obs.CounterCacheHits, 1)
		c.obs.Count(obs.CounterCacheBytesSaved, int64(len(e.mask.Pix)))
		return e.mask, nil, false
	}
	if f, ok := c.fills[key]; ok {
		c.mu.Unlock()
		return nil, f, false
	}
	f = &Fill{c: c, key: key, done: make(chan struct{})}
	c.fills[key] = f
	c.mu.Unlock()
	c.obs.Count(obs.CounterCacheMisses, 1)
	return nil, f, true
}

// Commit publishes the computed mask under the fill's key and wakes every
// waiter with it. Only call after the computing step completed cleanly.
// Idempotent against a prior resolution (first resolution wins).
func (f *Fill) Commit(m *video.Mask) {
	c := f.c
	c.mu.Lock()
	if c.fills[f.key] != f {
		c.mu.Unlock()
		return // already resolved (or superseded)
	}
	delete(c.fills, f.key)
	f.mask = m
	evicted := c.insertLocked(f.key, m)
	bytes, entries := c.bytes, c.lru.Len()
	c.mu.Unlock()
	close(f.done)
	c.obs.Count(obs.CounterCacheEvictions, int64(evicted))
	c.obs.GaugeSet(obs.GaugeCacheBytes, bytes)
	c.obs.GaugeSet(obs.GaugeCacheEntries, int64(entries))
}

// Abandon invalidates the fill without publishing anything — the step that
// was computing it failed or was cancelled. Waiters wake into Wait's
// one-shot re-offer. Idempotent against a prior resolution.
func (f *Fill) Abandon() {
	c := f.c
	c.mu.Lock()
	if c.fills[f.key] != f {
		c.mu.Unlock()
		return
	}
	delete(c.fills, f.key)
	f.mask = nil
	c.mu.Unlock()
	close(f.done)
	c.obs.Count(obs.CounterCacheFillAborts, 1)
}

// Wait blocks until the fill resolves or ctx fires and records exactly one
// hit or miss for the lookup that led here; while blocked the caller counts
// on the cache-waiters gauge. A committed fill serves its mask (a hit). A
// fired context returns neither (a miss: the caller computes locally).
//
// An abandoned fill — its owner's step failed before publishing — is
// re-offered once. Without that the key would stay a permanent miss: later
// viewers would find neither an entry nor an open fill to join. The
// re-offer is one Acquire: it serves the entry if another waiter already
// published it (a hit), hands the caller a new fill to own and resolve
// (refill, a miss), or, when another waiter claimed it first, returns
// neither (a miss). It never waits twice, so however many owners die a
// waiter cannot loop.
func (f *Fill) Wait(ctx context.Context) (m *video.Mask, refill *Fill) {
	c := f.c
	c.obs.GaugeAdd(obs.GaugeCacheWaiters, 1)
	resolved := false
	select {
	case <-f.done:
		resolved = true
	case <-ctx.Done():
	}
	c.obs.GaugeAdd(obs.GaugeCacheWaiters, -1)
	switch {
	case resolved && f.mask != nil:
		c.obs.Count(obs.CounterCacheHits, 1)
		c.obs.Count(obs.CounterCacheBytesSaved, int64(len(f.mask.Pix)))
		return f.mask, nil
	case resolved:
		if m, nf, owner := c.Acquire(f.key); m != nil || owner {
			return m, nf // Acquire recorded the hit or the miss
		}
	}
	c.obs.Count(obs.CounterCacheMisses, 1)
	return nil, nil
}

// insertLocked adds (or replaces) an entry and evicts from the LRU tail
// until the budget holds, returning how many entries were evicted. The
// just-inserted entry is never evicted, so one oversized mask can briefly
// exceed the budget rather than thrash. Caller holds c.mu.
func (c *Cache) insertLocked(key Key, m *video.Mask) (evicted int) {
	if el, ok := c.entries[key]; ok {
		c.bytes -= el.Value.(*entry).bytes
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	e := &entry{key: key, mask: m, bytes: int64(len(m.Pix)) + entryOverhead}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		tail := c.lru.Back()
		te := tail.Value.(*entry)
		c.lru.Remove(tail)
		delete(c.entries, te.key)
		c.bytes -= te.bytes
		evicted++
	}
	return evicted
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes reports the resident byte total (pixels + per-entry overhead).
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Contains reports whether a key is resident, without touching LRU order
// or counters (tests and introspection).
func (c *Cache) Contains(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}
