package core

import (
	"context"
	"fmt"

	"vrdann/internal/codec"
	"vrdann/internal/obs"
	"vrdann/internal/qos"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// StepSelector picks the QoS ladder rung for a B-frame about to be
// processed (see internal/qos). It is consulted once per B-frame, before
// any per-frame work; anchors are never offered — their segmentations are
// the references every later frame depends on. A nil selector serves every
// B-frame on qos.StepRefine, the paper's canonical path.
type StepSelector func(codec.FrameInfo) qos.Step

// PendingNN is the NN half of one engine step, split off by StepPrepare so
// a caller can run work between the decode side and the network — the
// serving layer consults its content cache and QoS ladder there, the
// overlapped driver hands B-frame work to its refinement workers. It
// carries exactly one of two kinds of work, mirroring the paper's two
// networks:
//
//   - anchor (I/P): an NN-L segmentation of the decoded frame;
//   - B-frame: an NN-S refinement of the MV-reconstructed mask between its
//     flanking anchor segmentations.
//
// The holder must finish the step by calling Finish with the computed mask
// before the next StepPrepare on the same engine. A PendingNN borrows the
// engine's state and is not safe to retain past Finish.
//
// Inside the package, the overlapped driver (StreamEngine.run) relaxes this
// for B-frame work only: its prev/rec/next (and base) are snapshots nothing
// mutates afterwards, and the only engine state its Finish touches is the
// window bookkeeping, which the driver runs in decode order itself. Anchor
// work can never be deferred — the next frame's reconstruction reads its
// mask from the reference window.
type PendingNN struct {
	e  *StreamEngine
	mo *MaskOut

	// NN-L work: the decoded frame to segment (nil on the refinement
	// path). Anchors always carry it; a B-frame carries it only when the
	// QoS ladder promoted it to full re-segmentation (reseg below).
	frame *video.Frame

	// reseg marks a B-frame promoted to the full NN-L rung. Its mask is
	// emitted but must stay out of the reference window: the window's
	// pruning schedule only tracks anchor displays, and later frames'
	// bit-identity contract is anchored on anchor-only references.
	reseg bool

	// B-frame work: the refinement sandwich inputs (nil for anchors). When
	// the residual skip cropped the frame, these are the dirty-rect crops.
	prev, next *video.Mask
	rec        *segment.ReconMask

	// Residual-skip crop state: when base is non-nil the sandwich above
	// covers only the dirty rectangle, and Finish composites the refined
	// crop over base (the full-frame MV reconstruction) at (cropX, cropY).
	base         *video.Mask
	cropX, cropY int
}

// IsAnchor reports whether this is NN-L (full segmentation) work, as
// opposed to NN-S (B-frame refinement) work. True for anchors and for
// B-frames promoted to the ladder's full rung.
func (pn *PendingNN) IsAnchor() bool { return pn.frame != nil }

// Frame returns the decoded anchor frame (nil for B-frame work).
func (pn *PendingNN) Frame() *video.Frame { return pn.frame }

// ExecuteLocal computes the pending mask inline on the caller's goroutine
// with the engine's own models, recording the same nn-l/refine spans as the
// fused serial loop. StepFunc and the serving layer are built on it.
func (pn *PendingNN) ExecuteLocal() *video.Mask { return pn.execute(pn.e.refiner) }

// execute is ExecuteLocal with the refiner chosen by the caller: the
// engine's own, or an overlapped worker's private clone.
func (pn *PendingNN) execute(r *segment.Refiner) *video.Mask {
	p := pn.e.p
	if pn.frame != nil {
		t0 := p.Obs.Clock()
		m := p.NNL.Segment(pn.frame, pn.mo.Display)
		p.Obs.Span(obs.StageNNL, pn.mo.Display, byte(pn.mo.Type), t0)
		return m
	}
	t1 := p.Obs.Clock()
	m := r.Refine(pn.prev, pn.rec, pn.next)
	p.Obs.Span(obs.StageRefine, pn.mo.Display, byte(pn.mo.Type), t1)
	return m
}

// Finish completes the step with the computed mask: anchor masks join the
// engine's reference window, and the window bookkeeping deferred by
// StepPrepare (high-watermark, gauge, pruning) runs exactly as the fused
// step would have run it. For residual-skip crops the mask is the refined
// dirty rectangle, composited here over the full-frame reconstruction.
func (pn *PendingNN) Finish(mask *video.Mask) *MaskOut {
	mo := pn.complete(mask)
	if pn.frame != nil && !pn.reseg {
		pn.e.segs[mo.Display] = mo.Mask
	}
	pn.e.finishStep()
	return mo
}

// complete is the half of Finish that touches no engine state: it
// composites a residual-skip crop and fills in the MaskOut.
func (pn *PendingNN) complete(mask *video.Mask) *MaskOut {
	if pn.base != nil {
		segment.PasteMask(pn.base, mask, pn.cropX, pn.cropY)
		mask = pn.base
	}
	pn.mo.Mask = mask
	return pn.mo
}

// sourceMask consults the pipeline's MaskSource for a frame, if one is
// configured. Drop-vetoed frames never reach it.
func (e *StreamEngine) sourceMask(info codec.FrameInfo) *video.Mask {
	if e.source == nil {
		return nil
	}
	return e.source(info.Display, info.Type)
}

// finishStep is the tail of a step: working-set accounting and reference
// pruning. It runs after every step, NN-bearing or not.
func (e *StreamEngine) finishStep() {
	if len(e.segs) > e.maxSegs {
		e.maxSegs = len(e.segs)
	}
	e.p.Obs.GaugeSet(obs.GaugeRefWindow, int64(len(e.segs)))
	// Prune references no later frame needs. The serial loop pruned after
	// emitting; pruning before the caller emits is equivalent because emit
	// never reads the window and the next Step sees the same pruned state.
	for d, last := range e.lastUse {
		if last <= e.pos {
			delete(e.segs, d)
			delete(e.lastUse, d)
		}
	}
}

// StepPrepare runs the decode-side half of a step — decode, ladder-rung
// selection, MV reconstruction — and either completes the frame itself
// (returning pending == nil: end of stream, shed B-frame, or unrefined
// reconstruction) or returns the frame's NN work as a PendingNN for the
// caller to execute and Finish. mo is non-nil exactly when pending is nil
// and a frame was produced; when pending is non-nil the MaskOut is
// delivered by Finish instead.
//
// The selector is consulted once per B-frame. qos.StepSkip sheds the frame
// (side info is still consumed; the entropy coder must advance);
// qos.StepRecon stops at the raw MV reconstruction; qos.StepRefine is the
// canonical refinement path; qos.StepFull promotes the B-frame to NN-L
// re-segmentation when its pixels were decoded (side-info decoders fall
// back to refinement — there is nothing to segment). The pipeline's
// MaskSource (content cache) is consulted only on the canonical rung:
// degraded masks must neither be served from nor published to a cache
// keyed on the full-quality configuration. Anchors never consult the
// selector.
//
// StepFunc(ctx, sel) is equivalent to StepPrepare followed by
// pending.Finish(pending.ExecuteLocal()).
func (e *StreamEngine) StepPrepare(ctx context.Context, sel StepSelector) (mo *MaskOut, pending *PendingNN, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	p := e.p
	out, derr := e.src.Next()
	if derr != nil {
		return nil, nil, fmt.Errorf("core: decode: %w", derr)
	}
	if out == nil {
		return nil, nil, nil
	}
	e.pos++
	mo = &MaskOut{Display: out.Info.Display, Type: out.Info.Type}
	switch out.Info.Type {
	case codec.IFrame, codec.PFrame:
		if out.Info.Type == codec.IFrame {
			e.stats.IFrames++
		} else {
			e.stats.PFrames++
		}
		if m := e.sourceMask(out.Info); m != nil {
			// Externally supplied anchor mask (content cache hit): NN-L is
			// skipped, but the mask still enters the reference window exactly
			// as Finish would have placed it.
			mo.Mask = m
			e.segs[out.Info.Display] = m
			break
		}
		e.stats.NNLRuns++
		return nil, &PendingNN{e: e, mo: mo, frame: out.Pixels}, nil
	case codec.BFrame:
		e.stats.BFrames++
		step := qos.StepRefine
		if sel != nil {
			step = sel(out.Info)
		}
		if step == qos.StepSkip {
			break // shed: side info consumed, no mask computed
		}
		if step == qos.StepFull && out.Pixels != nil {
			// Ladder top rung: the B-frame is re-segmented by NN-L as if it
			// were an anchor, but reseg keeps it out of the reference window.
			return nil, &PendingNN{e: e, mo: mo, frame: out.Pixels, reseg: true}, nil
		}
		if step == qos.StepRefine {
			if m := e.sourceMask(out.Info); m != nil {
				// Cache hit: reconstruction and NN-S are both skipped — the mask
				// is a pure function of the chunk bytes, which the source keys on.
				mo.Mask = m
				break
			}
		}
		t0 := p.Obs.Clock()
		rec, rerr := segment.Reconstruct(out.Info, e.segs, e.w, e.h, e.cfg.BlockSize)
		p.Obs.Span(obs.StageReconstruct, out.Info.Display, byte(out.Info.Type), t0)
		if rerr != nil {
			return nil, nil, fmt.Errorf("core: frame %d: %w", out.Info.Display, rerr)
		}
		e.stats.MVCount += len(out.Info.MVs)
		for _, mv := range out.Info.MVs {
			if mv.BiRef {
				e.stats.BiRefMVs++
			}
		}
		e.stats.IntraFallbackBlocks += out.Info.Blocks - len(out.Info.MVs)
		if e.refiner == nil || step == qos.StepRecon {
			mo.Mask = rec.Binary()
			break
		}
		prev, next := flankingAnchors(e.types, e.segs, out.Info.Display)
		pn := &PendingNN{e: e, mo: mo, prev: prev, next: next, rec: rec}
		if p.SkipResidual {
			rect, dirty, total, known := segment.ResidualDirtyRect(out.Info.BlockEnergy, e.w, e.h, e.cfg.BlockSize, p.SkipThreshold, segment.ResidualHalo)
			if !known {
				p.Obs.Count(obs.CounterQuantBlocksUnknown, int64(total))
			} else {
				p.Obs.Count(obs.CounterQuantBlocksSkipped, int64(total-dirty))
				p.Obs.Count(obs.CounterQuantBlocksDirty, int64(dirty))
			}
			if rect.Empty() {
				// Every block's motion-compensated prediction survived the
				// threshold: the reconstruction is the answer, no NN work.
				mo.Mask = rec.Binary()
				break
			}
			if !rect.Full(e.w, e.h) {
				pn.prev, pn.next = segment.CropMask(prev, rect), segment.CropMask(next, rect)
				pn.rec = rec.Crop(rect)
				pn.base, pn.cropX, pn.cropY = rec.Binary(), rect.X0, rect.Y0
			}
		}
		e.stats.NNSRuns++
		return nil, pn, nil
	}
	e.finishStep()
	return mo, nil, nil
}
