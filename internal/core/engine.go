package core

import (
	"context"
	"sync"
	"sync/atomic"

	"vrdann/internal/codec"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// frameSource yields a stream's frames in decode order and nil at the end:
// a live codec.StreamDecoder, or a cursor over a finished batch decode.
type frameSource interface {
	Next() (*codec.FrameOut, error)
	Remaining() int
}

// decodedCursor replays an already-decoded stream as a frameSource, so the
// batch pipelines run on the engine without decoding anything twice.
type decodedCursor struct {
	dec *codec.DecodeResult
	pos int
	out codec.FrameOut // reused: StepPrepare keeps no reference to it
}

func (c *decodedCursor) Remaining() int { return len(c.dec.Order) - c.pos }

func (c *decodedCursor) Next() (*codec.FrameOut, error) {
	if c.pos == len(c.dec.Order) {
		return nil, nil
	}
	d := c.dec.Order[c.pos]
	c.pos++
	c.out = codec.FrameOut{Info: c.dec.Infos[d], Pixels: c.dec.Frames[d]}
	return &c.out, nil
}

// StreamEngine is the one production implementation of the Fig 5 frame
// step: it drives the pipeline one frame at a time over a frame source and
// owns the state of the decode-order loop — the pruned reference window,
// the refiner, the working-set maximum, the work counters. It is the unit
// of scheduling of the multi-stream serving layer (a scheduler interleaves
// Step calls from many engines on a shared worker budget), and every Run
// variant of both pipeline forms is a driver over it, so a frame served
// through a scheduler is bit-identical to the same frame in a single-stream
// run by construction.
//
// An engine is not safe for concurrent use; callers must serialize Step.
type StreamEngine struct {
	p       *Pipeline // models and knobs, fixed at construction
	source  func(display int, t codec.FrameType) *video.Mask
	src     frameSource
	types   []codec.FrameType
	cfg     codec.Config
	w, h    int
	lastUse map[int]int
	segs    map[int]*video.Mask
	refiner *segment.Refiner
	pos     int
	maxSegs int
	stats   Stats // accumulated in decode order, so a failed run holds the serial prefix
}

// NewEngine prepares frame-by-frame execution of the pipeline over the
// given decoder (which must be freshly opened or Reset). The pipeline's
// observer is attached to the decoder for per-frame decode timings.
func (p *StreamingPipeline) NewEngine(dec *codec.StreamDecoder) *StreamEngine {
	dec.SetObserver(p.Obs)
	w, h := dec.Geometry()
	e := p.pipeline().newEngine(dec, dec.Types(), dec.Config(), w, h)
	e.source = p.MaskSource
	return e
}

// NewRefiner builds the NN-S executor this pipeline's engines refine with,
// over a private clone of the network, for a consumer that refines outside
// an engine (the serving layer's batcher). Nil when refinement is off.
func (p *StreamingPipeline) NewRefiner() *segment.Refiner { return p.pipeline().refiner(true) }

// newEngine builds an engine over any frame source of the given layout.
func (p *Pipeline) newEngine(src frameSource, types []codec.FrameType, cfg codec.Config, w, h int) *StreamEngine {
	return &StreamEngine{
		p: p, src: src, types: types, cfg: cfg, w: w, h: h,
		lastUse: segLastUse(types, cfg),
		segs:    make(map[int]*video.Mask),
		refiner: p.refiner(false),
		pos:     -1,
	}
}

// MaxSegs reports the largest reference working set held so far.
func (e *StreamEngine) MaxSegs() int { return e.maxSegs }

// Remaining reports how many frames the engine has not yet delivered.
func (e *StreamEngine) Remaining() int { return e.src.Remaining() }

// Step decodes and processes the next frame in decode order. It returns
// (nil, nil) when the stream is exhausted and ctx.Err() if the context is
// cancelled before the frame is decoded; frames already returned are
// unaffected by a later cancellation.
func (e *StreamEngine) Step(ctx context.Context) (*MaskOut, error) {
	return e.StepFunc(ctx, nil)
}

// StepFunc is Step with a QoS ladder hook: when sel is non-nil it is
// consulted for every B-frame and its rung is honored — qos.StepSkip
// yields a MaskOut with a nil Mask (the bitstream is still consumed;
// B-frame side info must be read to advance the entropy coder),
// qos.StepRecon stops at the raw MV reconstruction, and qos.StepFull
// re-segments the frame with NN-L when its pixels are available. Anchors
// are never degraded — their segmentations are the references every later
// frame depends on. This is the degradation policy of the serving layer:
// under overload, B-frames slide down the ladder while the anchor chain
// stays intact.
func (e *StreamEngine) StepFunc(ctx context.Context, sel StepSelector) (*MaskOut, error) {
	mo, pending, err := e.StepPrepare(ctx, sel)
	if err != nil || pending == nil {
		return mo, err
	}
	return pending.Finish(pending.ExecuteLocal()), nil
}

// inflight is one frame between StepPrepare and emission in the overlapped
// driver. done is nil when the mask was final at submission.
type inflight struct {
	mo      *MaskOut
	pn      *PendingNN    // B-frame NN-S work still to run on a worker
	done    chan struct{} // closed once mo.Mask is final
	maxSegs int           // working-set maximum through this frame
}

// run drives the engine to the end of its stream, delivering every frame to
// emit in decode order, and reports the working-set maximum through the
// last frame delivered. workers <= 1 is the serial loop. workers > 1 is the
// software form of the paper's agent unit (Sec IV): the caller decodes,
// reconstructs and runs anchor NN-L inline, B-frame NN-S work runs on
// workers goroutines (each on its own refiner clone), and an emitter
// re-serializes. Only anchors must Finish before the next StepPrepare — a
// B-frame PendingNN holds immutable prev/rec/next snapshots, so once the
// window bookkeeping has run in decode order on the caller, its mask may
// complete at any time.
//
// Every StepPrepare error surfaces on the caller in decode order, so masks,
// counters, maxSegs and the error returned are those of the serial loop for
// every worker count. After an error, a failed emit or a cancellation,
// frames already submitted still flow through the workers and the emitter
// (the emitted sequence stays a decode-order prefix) and every goroutine
// has exited before run returns.
func (e *StreamEngine) run(ctx context.Context, workers int, emit func(MaskOut) error) (int, error) {
	if workers <= 1 {
		for {
			mo, err := e.Step(ctx)
			if err == nil && mo != nil {
				err = emit(*mo)
			}
			if err != nil || mo == nil {
				return e.maxSegs, err
			}
		}
	}
	c := e.p.Obs
	jobs := make(chan *inflight) // unbuffered: the workers are the backpressure
	// Sized to the stream, so the decode loop never blocks on emission.
	emitQ := make(chan *inflight, e.Remaining())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refiner := e.p.refiner(true)
			for it := range jobs {
				c.GaugeAdd(obs.GaugeJobQueue, -1)
				c.GaugeAdd(obs.GaugeWorkers, 1)
				it.pn.complete(it.pn.execute(refiner))
				c.GaugeAdd(obs.GaugeWorkers, -1)
				close(it.done)
			}
		}()
	}
	var stop atomic.Bool
	var emitMax int
	var emitErr error
	emitDone := make(chan struct{})
	go func() {
		defer close(emitDone)
		for it := range emitQ {
			if it.done != nil {
				<-it.done
			}
			c.GaugeAdd(obs.GaugeEmitQueue, -1)
			if emitErr != nil {
				continue // drain after failure
			}
			emitMax = it.maxSegs
			if emitErr = emit(*it.mo); emitErr != nil {
				stop.Store(true)
			}
		}
	}()
	var stepErr error
	for !stop.Load() {
		mo, pn, err := e.StepPrepare(ctx, nil)
		if err != nil || (mo == nil && pn == nil) {
			stepErr = err
			break
		}
		it := &inflight{mo: mo}
		if pn != nil && pn.IsAnchor() {
			it.mo = pn.Finish(pn.ExecuteLocal())
		} else if pn != nil {
			e.finishStep()
			it.mo, it.pn, it.done = pn.mo, pn, make(chan struct{})
		}
		it.maxSegs = e.maxSegs
		c.GaugeAdd(obs.GaugeEmitQueue, 1)
		emitQ <- it
		if it.pn != nil {
			c.GaugeAdd(obs.GaugeJobQueue, 1)
			jobs <- it
		}
	}
	// Shutdown, identical on success and abort: closing jobs lets the
	// workers drain, after which every queued item's done channel is closed
	// and the emitter cannot block; then the emit queue is closed and drained.
	close(jobs)
	wg.Wait()
	close(emitQ)
	<-emitDone
	if emitErr != nil {
		return emitMax, emitErr
	}
	return e.maxSegs, stepErr
}
