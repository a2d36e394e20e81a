package contentcache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEvictionRacesFill hammers a cache whose byte budget holds only a
// handful of entries, so every Commit races LRU eviction of earlier
// commits while other goroutines Wait on open fills of the same keys.
// Designed for -race. Invariants checked:
//
//   - a Wait returns a mask or a re-offered fill, never both, and a mask
//     carries the committed content even if the entry was evicted again
//     immediately;
//   - the fill table drains: once all workers stop, no key has a stale
//     single-flight ticket;
//   - byte accounting stays consistent with the resident entries.
func TestEvictionRacesFill(t *testing.T) {
	const (
		keys    = 32
		workers = 16
		rounds  = 200
		w, h    = 16, 12
	)
	// Budget ~4 masks: nearly every commit evicts something.
	c := New(Config{MaxBytes: 4 * (int64(w*h) + entryOverhead)})

	var wrongMask, maskAndFill atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for r := 0; r < rounds; r++ {
				k := Key{Content: uint64((g + r) % keys), Display: (g + r) % keys, Model: 1}
				fill := uint8(k.Content + 1)
				m, f, owner := c.Acquire(k)
				switch {
				case m != nil:
					if m.Pix[0] != fill {
						wrongMask.Add(1)
					}
				case owner:
					if (g+r)%7 == 0 {
						f.Abandon()
						continue
					}
					f.Commit(mask(w, h, fill))
				default:
					got, refill := f.Wait(ctx)
					switch {
					case got != nil && refill != nil:
						maskAndFill.Add(1)
					case got != nil && got.Pix[0] != fill:
						wrongMask.Add(1)
					case refill != nil:
						refill.Commit(mask(w, h, fill))
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if n := maskAndFill.Load(); n != 0 {
		t.Errorf("%d Waits returned both a mask and a fill", n)
	}
	if n := wrongMask.Load(); n != 0 {
		t.Errorf("%d masks carried the wrong content", n)
	}

	// Fill table must be drained: with no workers left, Acquire on every
	// key either hits or hands us a fresh ownership — never an orphaned
	// ticket nobody will resolve.
	for i := 0; i < keys; i++ {
		k := Key{Content: uint64(i), Display: i, Model: 1}
		m, f, owner := c.Acquire(k)
		switch {
		case m != nil:
		case owner:
			f.Abandon()
		default:
			t.Fatalf("key %v: stale fill ticket after all workers exited", k)
		}
	}

	// Byte accounting: every resident entry costs at least the overhead
	// and the budget's eviction loop must have kept the total in bounds
	// (one oversized insert may exceed it, but ours are uniform).
	if b, n := c.Bytes(), c.Len(); b < int64(n)*entryOverhead || b > 4*(int64(w*h)+entryOverhead) {
		t.Errorf("byte accounting off: %d entries, %d bytes", n, b)
	}
	if c.Len() == 0 {
		t.Error("cache empty after the storm; commits never landed")
	}
}
