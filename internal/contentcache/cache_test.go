package contentcache

import (
	"context"
	"sync"
	"testing"
	"time"

	"vrdann/internal/obs"
	"vrdann/internal/video"
)

func mask(w, h int, fill uint8) *video.Mask {
	m := video.NewMask(w, h)
	for i := range m.Pix {
		m.Pix[i] = fill
	}
	return m
}

func fillKey(c *Cache, t *testing.T, k Key, m *video.Mask) {
	t.Helper()
	got, f, owner := c.Acquire(k)
	if got != nil || !owner {
		t.Fatalf("Acquire(%+v) before fill: mask %v owner %v", k, got, owner)
	}
	f.Commit(m)
}

// TestLRUEvictionOrder pins the eviction policy: least-recently-used keys
// leave first, a hit refreshes recency, and the evictions counter and byte
// gauges track the arithmetic exactly.
func TestLRUEvictionOrder(t *testing.T) {
	const w, h = 16, 8 // 128 pixel bytes + entryOverhead = 224 per entry
	perEntry := int64(w*h) + entryOverhead
	col := obs.New()
	c := New(Config{MaxBytes: 2 * perEntry, Obs: col})

	kA := Key{Content: 1, Display: 0, Model: 9}
	kB := Key{Content: 1, Display: 1, Model: 9}
	kC := Key{Content: 2, Display: 0, Model: 9}
	fillKey(c, t, kA, mask(w, h, 1))
	fillKey(c, t, kB, mask(w, h, 2))
	if c.Len() != 2 || c.Bytes() != 2*perEntry {
		t.Fatalf("resident %d entries / %d bytes, want 2 / %d", c.Len(), c.Bytes(), 2*perEntry)
	}

	// Touch A so B becomes the LRU victim.
	if m, _, _ := c.Acquire(kA); m == nil {
		t.Fatal("A should hit")
	}
	fillKey(c, t, kC, mask(w, h, 3))

	if !c.Contains(kA) || !c.Contains(kC) || c.Contains(kB) {
		t.Fatalf("eviction picked the wrong victim: A=%v B=%v C=%v",
			c.Contains(kA), c.Contains(kB), c.Contains(kC))
	}
	if c.Len() != 2 || c.Bytes() != 2*perEntry {
		t.Fatalf("post-eviction residency %d entries / %d bytes", c.Len(), c.Bytes())
	}

	snap := col.Snapshot()
	if snap.Counters[obs.CounterCacheEvictions.String()] != 1 {
		t.Fatalf("evictions counter = %d, want 1", snap.Counters[obs.CounterCacheEvictions.String()])
	}
	// 1 hit (the A touch), 3 misses (first Acquire of A, B, C).
	if snap.Counters[obs.CounterCacheHits.String()] != 1 {
		t.Fatalf("hits counter = %d, want 1", snap.Counters[obs.CounterCacheHits.String()])
	}
	if snap.Counters[obs.CounterCacheMisses.String()] != 3 {
		t.Fatalf("misses counter = %d, want 3", snap.Counters[obs.CounterCacheMisses.String()])
	}
	// Bytes-saved counts mask pixels only, once per hit.
	if snap.Counters[obs.CounterCacheBytesSaved.String()] != int64(w*h) {
		t.Fatalf("bytes-saved = %d, want %d", snap.Counters[obs.CounterCacheBytesSaved.String()], w*h)
	}
	var gBytes, gEntries int64
	for _, g := range snap.Gauges {
		switch g.Name {
		case obs.GaugeCacheBytes.String():
			gBytes = g.Current
		case obs.GaugeCacheEntries.String():
			gEntries = g.Current
		}
	}
	if gBytes != 2*perEntry || gEntries != 2 {
		t.Fatalf("gauges bytes=%d entries=%d, want %d/2", gBytes, gEntries, 2*perEntry)
	}
}

// TestBytesSavedArithmetic: n hits on one entry save exactly n × pixel
// bytes.
func TestBytesSavedArithmetic(t *testing.T) {
	const w, h, n = 32, 16, 5
	col := obs.New()
	c := New(Config{MaxBytes: 1 << 20, Obs: col})
	k := Key{Content: 7, Display: 3, Model: 1}
	fillKey(c, t, k, mask(w, h, 1))
	for i := 0; i < n; i++ {
		if m, _, _ := c.Acquire(k); m == nil {
			t.Fatalf("hit %d missed", i)
		}
	}
	snap := col.Snapshot()
	if got := snap.Counters[obs.CounterCacheBytesSaved.String()]; got != int64(n*w*h) {
		t.Fatalf("bytes-saved = %d, want %d", got, n*w*h)
	}
	if got := snap.Counters[obs.CounterCacheHits.String()]; got != n {
		t.Fatalf("hits = %d, want %d", got, n)
	}
}

// TestSingleFlightCommit: concurrent waiters on an open fill all receive
// the committed mask (the single-decode fan-out), each counted as a hit.
func TestSingleFlightCommit(t *testing.T) {
	col := obs.New()
	c := New(Config{MaxBytes: 1 << 20, Obs: col})
	k := Key{Content: 1}
	_, f, owner := c.Acquire(k)
	if !owner {
		t.Fatal("first Acquire must own the fill")
	}
	const waiters = 4
	want := mask(8, 8, 1)
	var wg sync.WaitGroup
	got := make([]*video.Mask, waiters)
	for i := 0; i < waiters; i++ {
		m, wf, own := c.Acquire(k)
		if m != nil || own {
			t.Fatalf("waiter %d: mask %v owner %v", i, m, own)
		}
		wg.Add(1)
		go func(i int, wf *Fill) {
			defer wg.Done()
			got[i], _ = wf.Wait(context.Background())
		}(i, wf)
	}
	f.Commit(want)
	wg.Wait()
	for i, m := range got {
		if m != want {
			t.Fatalf("waiter %d got %v", i, m)
		}
	}
	if hits := col.Snapshot().Counters[obs.CounterCacheHits.String()]; hits != waiters {
		t.Fatalf("hits = %d, want %d", hits, waiters)
	}
}

// TestAbandonWakesWaiters: an abandoned fill (failed step / resync) wakes
// waiters empty-handed and publishes nothing; the waiter is re-offered the
// key and owns the fresh fill. Double-resolution is tolerated, and the
// waiter's lookup records exactly one outcome — the owner's miss plus the
// re-offered miss, no hit.
func TestAbandonWakesWaiters(t *testing.T) {
	col := obs.New()
	c := New(Config{MaxBytes: 1 << 20, Obs: col})
	k := Key{Content: 2}
	_, f, _ := c.Acquire(k)
	_, wf, _ := c.Acquire(k)
	type waited struct {
		m      *video.Mask
		refill *Fill
	}
	done := make(chan waited, 1)
	go func() {
		m, refill := wf.Wait(context.Background())
		done <- waited{m, refill}
	}()
	f.Abandon()
	f.Abandon() // idempotent
	f.Commit(mask(4, 4, 1))
	w := <-done
	if w.m != nil {
		t.Fatal("waiter served from an abandoned fill")
	}
	if w.refill == nil {
		t.Fatal("waiter was not re-offered the abandoned key")
	}
	if c.Contains(k) {
		t.Fatal("abandoned (then spuriously committed) fill published an entry")
	}
	snap := col.Snapshot()
	if aborts := snap.Counters[obs.CounterCacheFillAborts.String()]; aborts != 1 {
		t.Fatalf("fill-aborts = %d, want 1", aborts)
	}
	hits, misses := snap.Counters[obs.CounterCacheHits.String()], snap.Counters[obs.CounterCacheMisses.String()]
	if hits != 0 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2 (one outcome per lookup)", hits, misses)
	}
	if _, _, owner := c.Acquire(k); owner {
		t.Fatal("re-offered fill must stay claimed until its owner resolves it")
	}
	w.refill.Commit(mask(4, 4, 1))
	if !c.Contains(k) {
		t.Fatal("re-offered fill did not publish")
	}
}

// TestWaitContextCancel: a waiter whose context fires falls back to a miss
// without blocking on the fill.
func TestWaitContextCancel(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := Key{Content: 3}
	_, f, _ := c.Acquire(k)
	_, wf, _ := c.Acquire(k)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if m, refill := wf.Wait(ctx); refill != nil || m != nil {
		t.Fatal("cancelled wait must report a miss")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled wait blocked")
	}
	f.Abandon()
}

// TestFingerprintSeparation: part boundaries matter ("ab","c" != "a","bc")
// and any part change moves the fingerprint.
func TestFingerprintSeparation(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("fingerprint ignores part boundaries")
	}
	if Fingerprint("nn-l", "quant") == Fingerprint("nn-l", "float") {
		t.Fatal("fingerprint ignores config parts")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Fatal("fingerprint not deterministic")
	}
}

// TestAdaptedFingerprintIsolation pins the adaptation tier's cache-safety
// contract: an adaptation-enabled session's keyspace is disjoint from the
// base model's (already at version 0), moves on every weights version, and
// never collides across sessions.
func TestAdaptedFingerprintIsolation(t *testing.T) {
	base := Fingerprint("nn-l", "nns=true quant=false")
	if AdaptedFingerprint(base, "s0001", 0) == base {
		t.Fatal("adapted session v0 shares the base model keyspace")
	}
	if AdaptedFingerprint(base, "s0001", 1) == AdaptedFingerprint(base, "s0001", 2) {
		t.Fatal("weights version does not move the fingerprint")
	}
	if AdaptedFingerprint(base, "s0001", 1) == AdaptedFingerprint(base, "s0002", 1) {
		t.Fatal("two sessions at the same version share a fingerprint")
	}
	if AdaptedFingerprint(base, "s0001", 3) != AdaptedFingerprint(base, "s0001", 3) {
		t.Fatal("adapted fingerprint not deterministic")
	}
	// Versions must not alias a neighbouring session's versions through the
	// digit-string boundary ("s1"+v=11 vs "s11"+v=1).
	if AdaptedFingerprint(base, "s1", 11) == AdaptedFingerprint(base, "s11", 1) {
		t.Fatal("session/version boundary aliases")
	}
}
