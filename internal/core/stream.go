package core

import (
	"context"
	"fmt"

	"vrdann/internal/codec"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// MaskOut is one emitted segmentation result.
type MaskOut struct {
	Display int
	Type    codec.FrameType
	Mask    *video.Mask
}

// StreamingPipeline is the incremental form of Pipeline: it consumes the
// bitstream through a StreamDecoder and emits each frame's segmentation as
// soon as it can be computed, holding only the reference segmentations
// still needed — the software mirror of the agent unit's bounded queues
// and buffers (Sec IV). Results are emitted in decode order; use
// DisplayOrder to re-sequence them with bounded buffering.
type StreamingPipeline struct {
	NNL segment.Segmenter
	NNS *nn.RefineNet
	// Quant routes NN-S refinement through the int8 execution tier (see
	// Pipeline.Quant).
	Quant  *nn.QuantRefineNet
	Refine bool
	// SkipResidual / SkipThreshold enable residual-driven sparsity (see
	// Pipeline.SkipResidual).
	SkipResidual  bool
	SkipThreshold int
	// Workers selects the execution mode: <= 1 runs the serial decode loop;
	// > 1 overlaps B-frame NN-S refinement, on that many goroutines, with
	// decoding, reconstruction and NN-L inference, with results
	// re-serialized into decode order. Emitted masks and maxSegs are
	// bit-identical either way.
	Workers int
	// MaskSource, when non-nil, is consulted once per non-dropped frame
	// before any of the frame's NN work, with the frame's display index and
	// coded type. A non-nil mask completes the frame without running NN-L
	// (anchors) or MV reconstruction + NN-S (B-frames); anchor masks
	// returned by the source still join the reference window, so later
	// local reconstructions see the state a full compute would have left.
	// The contract is that the source returns exactly the mask the engine
	// would have computed — the serving layer's content-addressed cache
	// guarantees it by keying on the chunk bytes and the models. The frame's
	// bitstream is always decoded first regardless (the entropy coder must
	// advance, and anchor pixels are codec reference state). Honoured at
	// every worker count.
	MaskSource func(display int, t codec.FrameType) *video.Mask
	// Obs, when non-nil, collects per-stage latency, queue-depth gauges
	// (job queue, emit queue, busy workers, reference window) and span
	// traces. Nil costs one pointer check per site.
	Obs *obs.Collector
}

// SetRefineNet swaps the pipeline's NN-S weights (and, when the pipeline
// serves the int8 tier, their quantized compilation). The swap is
// copy-on-write: engines construct their refiner from these fields at
// NewEngine time (cloning whenever the pipeline is observed or shared), so
// an engine already running — and any batched items in flight through it —
// finishes on the weights it started with, and the new weights take effect
// at the next engine construction. Callers must serialize SetRefineNet with
// NewEngine; the serving layer does so by swapping only at chunk
// boundaries, on the session's worker.
//
// A nil quant clears the int8 tier, reverting the pipeline to float
// refinement — callers promoting adapted weights into a quantized session
// pass the freshly compiled network instead.
func (p *StreamingPipeline) SetRefineNet(net *nn.RefineNet, quant *nn.QuantRefineNet) {
	p.NNS = net
	p.Quant = quant
}

// pipeline adapts the streaming configuration to the batch Pipeline, the
// form a StreamEngine holds its models and knobs in.
func (p *StreamingPipeline) pipeline() *Pipeline {
	return &Pipeline{
		NNL: p.NNL, NNS: p.NNS, Quant: p.Quant, Refine: p.Refine,
		SkipResidual: p.SkipResidual, SkipThreshold: p.SkipThreshold,
		Workers: p.Workers, Obs: p.Obs,
	}
}

// Run decodes the stream incrementally and calls emit for every frame's
// mask, in decode order. A non-nil error from emit aborts the run.
func (p *StreamingPipeline) Run(stream []byte, emit func(MaskOut) error) error {
	_, err := p.RunInstrumented(stream, emit)
	return err
}

// RunContext is Run with cancellation: the context is checked before every
// frame (serial mode) or every decode step (parallel mode), and a
// cancelled run returns ctx.Err() after draining its goroutines — no
// worker or emitter outlives the call.
func (p *StreamingPipeline) RunContext(ctx context.Context, stream []byte, emit func(MaskOut) error) error {
	_, err := p.RunInstrumentedContext(ctx, stream, emit)
	return err
}

// RunInstrumented is Run plus working-set instrumentation; it reports the
// maximum number of reference segmentations held at once.
func (p *StreamingPipeline) RunInstrumented(stream []byte, emit func(MaskOut) error) (maxSegs int, err error) {
	return p.RunInstrumentedContext(context.Background(), stream, emit)
}

// RunInstrumentedContext is RunInstrumented with cancellation plumbed down
// to the per-frame loop. Frames emitted before the cancellation are a
// prefix of the uncancelled run; in parallel mode, frames already in
// flight when the context fires are still completed and emitted so the
// emitted sequence remains a clean decode-order prefix.
func (p *StreamingPipeline) RunInstrumentedContext(ctx context.Context, stream []byte, emit func(MaskOut) error) (maxSegs int, err error) {
	dec, err := codec.NewStreamDecoder(stream, codec.DecodeSideInfo)
	if err != nil {
		return 0, fmt.Errorf("core: stream decoder: %w", err)
	}
	return p.NewEngine(dec).run(ctx, p.Workers, func(mo MaskOut) error {
		t0 := p.Obs.Clock()
		err := emit(mo)
		p.Obs.Span(obs.StageEmit, mo.Display, byte(mo.Type), t0)
		return err
	})
}

// segLastUse computes, per anchor display index, the last decode position
// at which its segmentation is still needed (as a motion-vector reference
// candidate or a sandwich flanking channel).
func segLastUse(types []codec.FrameType, cfg codec.Config) map[int]int {
	var anchors []int
	for i, t := range types {
		if t.IsAnchor() {
			anchors = append(anchors, i)
		}
	}
	order := codec.DecodeOrder(types, cfg)
	lastUse := make(map[int]int)
	for pos, disp := range order {
		if types[disp].IsAnchor() {
			if _, ok := lastUse[disp]; !ok {
				lastUse[disp] = pos
			}
			continue
		}
		// Candidate references plus the flanking anchors used by the
		// sandwich input.
		for _, rf := range codec.CandidateRefs(anchors, disp, cfg) {
			if lastUse[rf] < pos {
				lastUse[rf] = pos
			}
		}
		for _, rf := range flankingAnchorIndices(types, disp) {
			if lastUse[rf] < pos {
				lastUse[rf] = pos
			}
		}
	}
	return lastUse
}

// flankingAnchorIndices returns the display indices of the anchors
// immediately before and after d.
func flankingAnchorIndices(types []codec.FrameType, d int) []int {
	var out []int
	for i := d - 1; i >= 0; i-- {
		if types[i].IsAnchor() {
			out = append(out, i)
			break
		}
	}
	for i := d + 1; i < len(types); i++ {
		if types[i].IsAnchor() {
			out = append(out, i)
			break
		}
	}
	return out
}

// DisplayOrder wraps an emit callback so results arrive in display order,
// buffering at most the decoder's natural reordering window.
func DisplayOrder(emit func(MaskOut) error) func(MaskOut) error {
	pending := make(map[int]MaskOut)
	next := 0
	return func(m MaskOut) error {
		pending[m.Display] = m
		for {
			out, ok := pending[next]
			if !ok {
				return nil
			}
			if err := emit(out); err != nil {
				return err
			}
			delete(pending, next)
			next++
		}
	}
}
