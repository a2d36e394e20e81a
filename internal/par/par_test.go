package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
		for _, grain := range []int{1, 3, 64, 5000} {
			hits := make([]int32, n)
			For(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, h)
				}
			}
		}
	}
}

func TestForSerialFallbackRunsOnCaller(t *testing.T) {
	// grain >= n must yield exactly one call, fn(0, n), on the caller.
	calls := 0
	For(10, 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("serial fallback got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial fallback called fn %d times", calls)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 1, func(lo, hi int) { called = true })
	For(-3, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn must not run for n <= 0")
	}
}

func TestForNestedDoesNotDeadlock(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var total atomic.Int64
	For(16, 1, func(lo, hi int) {
		For(16, 1, func(lo2, hi2 int) {
			total.Add(int64(hi2 - lo2))
		})
	})
	if total.Load() != 16*16 {
		t.Fatalf("nested total = %d", total.Load())
	}
}

func TestGrain(t *testing.T) {
	// Small totals must not split: grain >= n.
	if g := Grain(8, 10, MinWorkFloats); g < 8 {
		t.Fatalf("tiny workload split: grain=%d", g)
	}
	// Large totals must split into multiple blocks.
	if g := Grain(1<<20, 64, MinWorkFloats); g >= 1<<20 {
		t.Fatalf("large workload did not split: grain=%d", g)
	}
	// Each block carries at least minWork units.
	g := Grain(1<<20, 3, 300)
	if g*3 < 300 {
		t.Fatalf("grain %d too small for minWork", g)
	}
	if Grain(0, 1, 1) != 1 || Grain(5, 0, 0) < 1 {
		t.Fatal("degenerate inputs must yield a positive grain")
	}
}

func TestMaxWorkersPositive(t *testing.T) {
	if MaxWorkers() < 1 {
		t.Fatal("MaxWorkers must be >= 1")
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if got := EffectiveWorkers(0); got != 1 {
		t.Fatalf("EffectiveWorkers(0) = %d, want 1", got)
	}
	if got := EffectiveWorkers(-3); got != 1 {
		t.Fatalf("EffectiveWorkers(-3) = %d, want 1", got)
	}
	if got := EffectiveWorkers(1); got != 1 {
		t.Fatalf("EffectiveWorkers(1) = %d, want 1", got)
	}
	m := MaxWorkers()
	if got := EffectiveWorkers(m + 100); got != m {
		t.Fatalf("EffectiveWorkers(%d) = %d, want GOMAXPROCS %d", m+100, got, m)
	}
	if m >= 2 {
		if got := EffectiveWorkers(2); got != 2 {
			t.Fatalf("EffectiveWorkers(2) = %d, want 2", got)
		}
	}
}
