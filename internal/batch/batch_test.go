package batch

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// makeRefineInputs builds a deterministic refinement sandwich.
func makeRefineInputs(rng *rand.Rand, w, h int) (*video.Mask, *segment.ReconMask, *video.Mask) {
	prev, next := video.NewMask(w, h), video.NewMask(w, h)
	rec := segment.NewReconMask(w, h)
	for i := range prev.Pix {
		prev.Pix[i] = uint8(rng.Intn(2))
		next.Pix[i] = uint8(rng.Intn(2))
		rec.Pix[i] = uint8(rng.Intn(4))
	}
	return prev, rec, next
}

func newNet(t *testing.T) *nn.RefineNet {
	t.Helper()
	return nn.NewRefineNet(rand.New(rand.NewSource(4)), 4)
}

// TestFullFlushFused submits exactly MaxBatch refinements concurrently and
// checks every result is bit-identical to the serial refiner, that the
// flush was recorded as one full fused batch, and that occupancy telemetry
// saw MaxBatch items.
func TestFullFlushFused(t *testing.T) {
	const n = 4
	net := newNet(t)
	col := obs.New()
	e := New(Config{MaxBatch: n, MaxWait: time.Minute, Refiner: segment.NewRefiner(net.Clone()), Obs: col})
	defer e.Close()
	serial := segment.NewRefiner(net.Clone())
	rng := rand.New(rand.NewSource(8))
	type job struct {
		prev *video.Mask
		rec  *segment.ReconMask
		next *video.Mask
	}
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i].prev, jobs[i].rec, jobs[i].next = makeRefineInputs(rng, 16, 8)
	}
	got := make([]*video.Mask, n)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := e.Refine(context.Background(), jobs[i].prev, jobs[i].rec, jobs[i].next)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		want := serial.Refine(j.prev, j.rec, j.next)
		for p := range want.Pix {
			if got[i].Pix[p] != want.Pix[p] {
				t.Fatalf("job %d pixel %d: batched %d != serial %d", i, p, got[i].Pix[p], want.Pix[p])
			}
		}
	}
	r := col.Snapshot()
	if c := r.Counters[obs.CounterBatchFlushFull.String()]; c != 1 {
		t.Fatalf("flush-full = %d, want 1 (counters: %v)", c, r.Counters)
	}
	if c := r.Counters[obs.CounterBatchItems.String()]; c != n {
		t.Fatalf("batch-items = %d, want %d", c, n)
	}
	h := r.Hist("batch-occupancy")
	if h == nil || h.Max != n {
		t.Fatalf("occupancy hist %+v, want max %d", h, n)
	}
}

// TestTimerFlushPartial submits fewer items than MaxBatch and relies on
// the MaxWait deadline to flush the partial batch.
func TestTimerFlushPartial(t *testing.T) {
	net := newNet(t)
	col := obs.New()
	e := New(Config{MaxBatch: 8, MaxWait: 5 * time.Millisecond, Refiner: segment.NewRefiner(net.Clone()), Obs: col})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	prev, rec, next := makeRefineInputs(rng, 8, 8)
	m, err := e.Refine(context.Background(), prev, rec, next)
	if err != nil || m == nil {
		t.Fatalf("refine: %v (mask %v)", err, m)
	}
	r := col.Snapshot()
	if c := r.Counters[obs.CounterBatchFlushTimer.String()]; c != 1 {
		t.Fatalf("flush-timer = %d, want 1 (counters: %v)", c, r.Counters)
	}
}

// TestCloseDrainsAndRejects checks that Close executes queued work (reason
// "drain") and that later submissions fail with ErrClosed.
func TestCloseDrainsAndRejects(t *testing.T) {
	net := newNet(t)
	col := obs.New()
	e := New(Config{MaxBatch: 8, MaxWait: time.Minute, Refiner: segment.NewRefiner(net.Clone()), Obs: col})
	rng := rand.New(rand.NewSource(2))
	prev, rec, next := makeRefineInputs(rng, 8, 8)
	var (
		m   *video.Mask
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, err = e.Refine(context.Background(), prev, rec, next)
	}()
	// Wait until the item is actually queued before closing.
	for {
		e.mu.Lock()
		queued := len(e.items) == 1
		e.mu.Unlock()
		if queued {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	e.Close()
	wg.Wait()
	if err != nil || m == nil {
		t.Fatalf("drained refine: %v (mask %v)", err, m)
	}
	if c := col.Snapshot().Counters[obs.CounterBatchFlushDrain.String()]; c != 1 {
		t.Fatalf("flush-drain = %d, want 1", c)
	}
	if _, err := e.Refine(context.Background(), prev, rec, next); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close refine error = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestStallFlush checks the producer-stall path: when the Stalled
// callback reports every producer is blocked, a partial batch flushes
// immediately (reason "stall") instead of waiting out MaxWait.
func TestStallFlush(t *testing.T) {
	net := newNet(t)
	col := obs.New()
	e := New(Config{
		MaxBatch: 8,
		MaxWait:  time.Hour, // the test fails by timeout if stall doesn't flush
		Refiner:  segment.NewRefiner(net.Clone()),
		Obs:      col,
		Stalled:  func(pending int) bool { return pending >= 2 },
	})
	defer e.Close()
	serial := segment.NewRefiner(net.Clone())
	rng := rand.New(rand.NewSource(7))
	type job struct {
		prev *video.Mask
		rec  *segment.ReconMask
		next *video.Mask
	}
	jobs := make([]job, 2)
	for i := range jobs {
		jobs[i].prev, jobs[i].rec, jobs[i].next = makeRefineInputs(rng, 8, 8)
	}
	got := make([]*video.Mask, 2)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := e.Refine(context.Background(), jobs[i].prev, jobs[i].rec, jobs[i].next)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		want := serial.Refine(j.prev, j.rec, j.next)
		for p := range want.Pix {
			if got[i].Pix[p] != want.Pix[p] {
				t.Fatalf("job %d pixel %d: stall-flushed mask differs from serial", i, p)
			}
		}
	}
	if c := col.Snapshot().Counters[obs.CounterBatchFlushStall.String()]; c == 0 {
		t.Fatal("no stall flush recorded")
	}
}

// TestCancelRetractsQueuedItem checks a cancelled submitter leaves the
// queue (and does not occupy a lane of a later batch).
func TestCancelRetractsQueuedItem(t *testing.T) {
	net := newNet(t)
	e := New(Config{MaxBatch: 8, MaxWait: time.Hour, Refiner: segment.NewRefiner(net.Clone())})
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	prev, rec, next := makeRefineInputs(rng, 8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Refine(ctx, prev, rec, next); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled refine error = %v, want context.Canceled", err)
	}
	e.mu.Lock()
	left := len(e.items)
	e.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d items left queued after retraction", left)
	}
}

// TestPanicFailsAlone pins the fault-isolation contract: a model panic on
// one batch lane (a sandwich with no preceding anchor mask faults inside
// the fused forward's input packing) errors that item only; its
// batch-mates' masks are untouched and identical to serial execution.
func TestPanicFailsAlone(t *testing.T) {
	const n, poison = 3, 1
	net := newNet(t)
	e := New(Config{MaxBatch: n, MaxWait: time.Minute, Refiner: segment.NewRefiner(net.Clone())})
	defer e.Close()
	serial := segment.NewRefiner(net.Clone())
	rng := rand.New(rand.NewSource(9))
	jobs := make([]segment.RefineJob, n)
	for i := range jobs {
		jobs[i].Prev, jobs[i].Rec, jobs[i].Next = makeRefineInputs(rng, 16, 8)
	}
	jobs[poison].Prev = nil
	results := make([]*video.Mask, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Refine(context.Background(), jobs[i].Prev, jobs[i].Rec, jobs[i].Next)
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		if i == poison {
			if errs[i] == nil {
				t.Fatalf("poisoned item %d returned no error", i)
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("batch-mate %d failed: %v", i, errs[i])
		}
		want := serial.Refine(j.Prev, j.Rec, j.Next)
		for p := range want.Pix {
			if results[i].Pix[p] != want.Pix[p] {
				t.Fatalf("batch-mate %d pixel %d differs from serial", i, p)
			}
		}
	}
}

// TestMixedGeometryGroups submits refinements of two different resolutions
// into one flush and checks both groups come back correct.
func TestMixedGeometryGroups(t *testing.T) {
	net := newNet(t)
	e := New(Config{MaxBatch: 4, MaxWait: time.Minute, Refiner: segment.NewRefiner(net.Clone())})
	defer e.Close()
	serial := segment.NewRefiner(net.Clone())
	rng := rand.New(rand.NewSource(5))
	geoms := [][2]int{{16, 8}, {8, 8}, {16, 8}, {8, 8}}
	type res struct {
		m    *video.Mask
		want *video.Mask
		err  error
	}
	results := make([]res, len(geoms))
	var wg sync.WaitGroup
	var mu sync.Mutex // serial refiner is single-threaded; precompute under lock
	for i, g := range geoms {
		prev, rec, next := makeRefineInputs(rng, g[0], g[1])
		mu.Lock()
		results[i].want = serial.Refine(prev, rec, next)
		mu.Unlock()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].m, results[i].err = e.Refine(context.Background(), prev, rec, next)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("job %d: %v", i, r.err)
		}
		for p := range r.want.Pix {
			if r.m.Pix[p] != r.want.Pix[p] {
				t.Fatalf("job %d pixel %d differs across geometry grouping", i, p)
			}
		}
	}
}
