// Package batch implements the cross-session dynamic batching engine: it
// coalesces NN-S B-frame refinements submitted by many concurrent stream
// sessions into fused batched forwards, amortizing per-invocation
// scheduling and memory traffic the way the paper's agent unit amortizes
// kernel switches on the accelerator.
//
// Only NN-S is batched. NN-L anchor segmentation runs on the submitting
// session's own worker: no Segmenter fuses frames into one kernel, so a
// queue for it bought hops, not GEMM sharing (DESIGN.md §11).
//
// The queue flushes as ONE batched execution when MaxBatch items are
// waiting or when the oldest item has waited MaxWait, whichever comes
// first; a timer flush keeps tail latency bounded when concurrency is low,
// a full flush keeps throughput high when it is not.
//
// Correctness contract: the mask returned for an item is bit-identical to
// refining that item alone on the session's own refiner (segment.Refiner
// guarantees this at any batch size), and a failing item — panic inside
// the model, cancelled context — fails alone, never its batch-mates.
package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// ErrClosed is returned for work submitted after Close.
var ErrClosed = errors.New("batch: engine closed")

// Config sizes a batching engine.
type Config struct {
	// MaxBatch is the flush threshold: a queue reaching this many pending
	// items is executed immediately as one fused batch. Values <= 1 flush
	// every item on its own (batching effectively disabled).
	MaxBatch int

	// MaxWait bounds how long the oldest queued item waits for batch-mates
	// before a partial batch is flushed. Zero or negative defaults to 2ms —
	// small next to a frame budget, large next to a fused NN-S forward.
	MaxWait time.Duration

	// Refiner is the NN-S executor fused flushes run on. Required. The
	// engine owns it: pass one built over a private clone of the network
	// the sessions serve, so fused refinement uses weights identical to
	// every session's own clone — the bit-identity contract depends on this.
	Refiner *segment.Refiner

	// Obs, when non-nil, receives batch telemetry: occupancy and queue-depth
	// histograms, flush-reason counters, and per-item queue-wait spans.
	Obs *obs.Collector

	// Stalled, when non-nil, is consulted after each enqueue that did not
	// fill a batch, with the number of items pending. Returning true means
	// the caller knows no further work can arrive right now — every
	// producer is already blocked in the engine — and the queue flushes
	// immediately instead of idling out MaxWait.
	// Called without engine locks held; it may take the caller's own locks.
	Stalled func(pending int) bool
}

// DefaultMaxWait is the partial-batch flush deadline used when Config
// leaves MaxWait unset.
const DefaultMaxWait = 2 * time.Millisecond

// item is one queued refinement and its result slot.
type item struct {
	job  segment.RefineJob
	enq  time.Duration // queue-entry timestamp (collector clock)
	mask *video.Mask
	err  error
	done chan struct{}
}

// Engine is the cross-session dynamic batcher. One engine is shared by all
// sessions of a server; its methods are safe for concurrent use.
type Engine struct {
	cfg Config

	// width is the effective flush threshold, runtime-adjustable through
	// SetMaxBatch within [1, cfg.MaxBatch]. It starts at the configured
	// ceiling, so engines whose owner never adjusts it behave exactly as
	// before the knob existed.
	width atomic.Int32

	// execMu serializes fused executions: the refiner reuses per-network
	// scratch and is not reentrant.
	execMu sync.Mutex

	mu     sync.Mutex
	items  []*item     // pending work
	gen    uint64      // increments every time items is taken, invalidating an armed timer
	timer  *time.Timer // partial-batch flush, armed by the first queued item
	closed bool
}

// New creates a batching engine.
func New(cfg Config) *Engine {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = DefaultMaxWait
	}
	e := &Engine{cfg: cfg}
	e.width.Store(int32(cfg.MaxBatch))
	return e
}

// SetMaxBatch adjusts the effective flush threshold at runtime, clamped to
// [1, Config.MaxBatch] — the configured value sized the caller's worker
// pool and stays the ceiling. The QoS control loop widens the threshold as
// load rises (amortize more work per fused kernel) and tightens it back to
// 1 as load falls (flush immediately, minimum queue wait). Any width is
// correct; the knob trades latency against throughput, never results.
func (e *Engine) SetMaxBatch(n int) {
	if n < 1 {
		n = 1
	}
	if n > e.cfg.MaxBatch {
		n = e.cfg.MaxBatch
	}
	e.width.Store(int32(n))
}

// MaxBatch reports the current effective flush threshold.
func (e *Engine) MaxBatch() int { return int(e.width.Load()) }

// Occupancy reports the engine's fill fraction — items queued over the
// effective batch width, clamped to [0, 1]. One of the QoS controller's
// load inputs.
func (e *Engine) Occupancy() float64 {
	e.mu.Lock()
	p := len(e.items)
	e.mu.Unlock()
	w := int(e.width.Load())
	if w < 1 {
		w = 1
	}
	occ := float64(p) / float64(w)
	if occ > 1 {
		occ = 1
	}
	return occ
}

// Refine submits one B-frame refinement sandwich and blocks until its batch
// executes (or ctx is cancelled while the item is still queued). It
// enqueues the item, flushes inline when the queue fills, arms the
// partial-batch timer on the first item, then waits for the result.
func (e *Engine) Refine(ctx context.Context, prev *video.Mask, rec *segment.ReconMask, next *video.Mask) (*video.Mask, error) {
	it := &item{job: segment.RefineJob{Prev: prev, Rec: rec, Next: next}, done: make(chan struct{})}
	o := e.cfg.Obs
	it.enq = o.Clock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.items = append(e.items, it)
	pending := len(e.items)
	o.GaugeSet(obs.GaugeBatchQueue, int64(pending))
	o.Observe(obs.HistBatchQueueDepth, int64(pending))
	var flush []*item
	if pending >= int(e.width.Load()) {
		flush = e.takeLocked()
	} else if pending == 1 {
		gen := e.gen
		e.timer = time.AfterFunc(e.cfg.MaxWait, func() { e.timerFlush(gen) })
	}
	e.mu.Unlock()

	if flush != nil {
		// The submitter that fills a batch executes it inline: no handoff
		// goroutine, and exactly one worker is charged for the fused run.
		e.execute(flush, obs.CounterBatchFlushFull)
	} else if e.cfg.Stalled != nil && e.cfg.Stalled(pending) {
		// Every producer is blocked in the engine: waiting out MaxWait would
		// only idle the machine. Flush now — this is the software analogue
		// of the agent unit dispatching as soon as its coalescing window can
		// no longer grow. Racing flushes are benign: whatever another flush
		// already took is simply absent here.
		e.flush(obs.CounterBatchFlushStall, false)
	}

	select {
	case <-it.done:
		return it.mask, it.err
	case <-ctx.Done():
		if e.retract(it) {
			return nil, ctx.Err()
		}
		// Already claimed by a flush — the result is imminent; deliver it
		// rather than abandoning work that was performed.
		<-it.done
		return it.mask, it.err
	}
}

// takeLocked removes and returns the pending items, invalidating any armed
// timer. Caller holds e.mu.
func (e *Engine) takeLocked() []*item {
	items := e.items
	e.items = nil
	e.gen++
	if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
	e.cfg.Obs.GaugeSet(obs.GaugeBatchQueue, 0)
	return items
}

// flush takes and executes whatever is queued; with closing set it also
// fences off every later submission. A no-op on a closed engine.
func (e *Engine) flush(reason obs.Counter, closing bool) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = closing
	items := e.takeLocked()
	e.mu.Unlock()
	if len(items) > 0 {
		e.execute(items, reason)
	}
}

// timerFlush executes a partial batch when the oldest item's wait expires.
// gen guards against the race where the batch filled (or closed) between
// the timer firing and the lock being acquired.
func (e *Engine) timerFlush(gen uint64) {
	e.mu.Lock()
	if e.closed || e.gen != gen || len(e.items) == 0 {
		e.mu.Unlock()
		return
	}
	items := e.takeLocked()
	e.mu.Unlock()
	e.execute(items, obs.CounterBatchFlushTimer)
}

// retract removes a still-queued item after its submitter's context was
// cancelled, so a cancelled session never occupies a lane of a later batch.
func (e *Engine) retract(it *item) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.items {
		if x == it {
			e.items = append(e.items[:i], e.items[i+1:]...)
			e.cfg.Obs.GaugeSet(obs.GaugeBatchQueue, int64(len(e.items)))
			return true
		}
	}
	return false
}

// Close flushes the queue (reason "drain") and rejects all later
// submissions with ErrClosed. Safe to call more than once.
func (e *Engine) Close() { e.flush(obs.CounterBatchFlushDrain, true) }

// execute runs one fused batch: telemetry, then the refinement — items
// grouped by frame geometry (streams of different resolutions cannot share
// a fused forward), each group one RefineBatch — then per-item completion.
// A panic inside a fused run degrades that group to per-item execution so
// only the poisoned item fails.
func (e *Engine) execute(items []*item, reason obs.Counter) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	o := e.cfg.Obs
	o.Observe(obs.HistBatchOccupancy, int64(len(items)))
	o.Count(reason, 1)
	o.Count(obs.CounterBatchItems, int64(len(items)))
	for _, it := range items {
		o.ObserveDur(obs.StageBatchWait, -1, obs.KindNone, it.enq, o.Clock()-it.enq)
	}
	t := o.Clock()
	for i := 0; i < len(items); {
		w, h := items[i].job.Rec.W, items[i].job.Rec.H
		j := i + 1
		for j < len(items) && items[j].job.Rec.W == w && items[j].job.Rec.H == h {
			j++
		}
		group := items[i:j]
		if !e.refineGroup(group) {
			for _, it := range group {
				e.refineOne(it)
			}
		}
		i = j
	}
	o.Span(obs.StageBatchNNS, -1, obs.KindNone, t)
	for _, it := range items {
		close(it.done)
	}
}

// refineGroup runs one fused RefineBatch call, reporting false if the
// model panicked.
func (e *Engine) refineGroup(group []*item) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	jobs := make([]segment.RefineJob, len(group))
	for i, it := range group {
		jobs[i] = it.job
	}
	masks := e.cfg.Refiner.RefineBatch(jobs)
	for i, it := range group {
		it.mask = masks[i]
	}
	return true
}

// refineOne runs a single item's NN-S (a batch of one) with per-item panic
// isolation.
func (e *Engine) refineOne(it *item) {
	defer func() {
		if r := recover(); r != nil {
			it.err = fmt.Errorf("batch: nn-s panic: %v", r)
		}
	}()
	it.mask = e.cfg.Refiner.Refine(it.job.Prev, it.job.Rec, it.job.Next)
}
