// Package par is the shared CPU-parallelism substrate of the repository:
// a bounded fork-join parallel-for sized from runtime.GOMAXPROCS and a
// grain heuristic that keeps per-block work large enough to amortize
// scheduling.
//
// It is the software analog of the paper's agent unit resource manager:
// every parallel site in the repository — tensor kernels, nn layer passes,
// the overlapped frame pipeline in internal/core — draws from the same
// bounded budget, so nested parallelism degrades gracefully to serial
// execution instead of oversubscribing the machine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxWorkers returns the process-wide parallelism budget: the current
// runtime.GOMAXPROCS setting.
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// EffectiveWorkers clamps a requested worker count to the parallelism the
// process can actually deliver: at least 1, at most GOMAXPROCS. Requesting
// more goroutines than cores is allowed everywhere (blocked pipeline
// workers cost no CPU), but reports must record this value — the
// parallelism a run really had — not the raw flag.
func EffectiveWorkers(n int) int {
	if n < 1 {
		return 1
	}
	if m := MaxWorkers(); n > m {
		return m
	}
	return n
}

// sem bounds the number of *helper* goroutines alive across all concurrent
// For calls — the bounded worker pool, sized from GOMAXPROCS at startup.
// The calling goroutine always participates, so a nested For that finds
// the semaphore exhausted simply runs serially — no deadlock, no
// oversubscription.
var sem = make(chan struct{}, poolSize())

func poolSize() int {
	// Four helper slots per core lets nested sites (pipeline workers that
	// call parallel kernels) share the pool, and the floor of 8 keeps the
	// pool usable when a test raises GOMAXPROCS after package init. The
	// per-call helper count in For is still GOMAXPROCS-1, so concurrency
	// tracks the live setting; this only caps the global total.
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// For runs fn over contiguous blocks covering [0, n), each block at most
// grain indices wide: fn(lo, hi) processes indices lo <= i < hi. Blocks
// are claimed dynamically (work-stealing via an atomic cursor), so uneven
// block costs balance automatically. When the iteration does not split —
// n <= grain, a single worker budget, or no free helper slots — fn runs
// once on the calling goroutine as fn(0, n), which is the exact serial
// semantics.
//
// fn must be safe to call concurrently for disjoint ranges and must not
// assume any block ordering.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	blocks := (n + grain - 1) / grain
	want := MaxWorkers() - 1 // helpers; the caller is the first worker
	if want > blocks-1 {
		want = blocks - 1
	}
	if blocks == 1 || want < 1 {
		fn(0, n)
		return
	}
	var cursor atomic.Int64
	run := func() {
		for {
			b := int(cursor.Add(1)) - 1
			if b >= blocks {
				return
			}
			lo := b * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
spawn:
	for i := 0; i < want; i++ {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				run()
			}()
		default:
			// Budget exhausted (deep nesting): the caller handles the rest.
			break spawn
		}
	}
	run()
	wg.Wait()
}

// Grain picks a block size for For over n items where one item costs
// roughly `work` abstract units (flops, pixels). The grain is large enough
// that a block carries at least minWork units — so goroutine hand-off is
// amortized — and large enough that the iteration splits into about four
// blocks per worker, which keeps the dynamic-claim overhead low while
// still balancing uneven blocks. A grain >= n makes For run serially.
func Grain(n, work, minWork int) int {
	if n <= 0 {
		return 1
	}
	if work < 1 {
		work = 1
	}
	g := (minWork + work - 1) / work
	if t := n / (4 * MaxWorkers()); t > g {
		g = t
	}
	if g < 1 {
		g = 1
	}
	return g
}

// MinWorkFloats is the default minimum per-block work (in float operations)
// below which splitting an iteration is not worth a goroutine hand-off.
const MinWorkFloats = 16 * 1024
