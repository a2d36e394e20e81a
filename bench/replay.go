package main

import (
	"fmt"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/segment"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// replayer is the benchmark's own serial copy of the frame loop:
// StreamDecoder.Next → Segmenter.Segment → segment.Reconstruct →
// Refiner.Refine, one public call at a time with a span around each. It
// exists to attribute a chunk's time to layers without instrumenting the
// program; its masks are cross-checked against core's, so what it times is
// what core computes.
type replayer struct {
	tr      *tracer
	nnl     segment.Segmenter
	refiner *segment.Refiner // nil: B-frames are the raw reconstruction
	// forward is a second copy of the refiner's network. Refiner.Refine
	// cannot be opened from outside, so its forward pass is timed by
	// repeating it here on the same sandwich.
	forward func(*tensor.Tensor) *tensor.Tensor
	skip    bool
}

func newReplayer(k pipeKind, m *models, tr *tracer) *replayer {
	r := &replayer{tr: tr, nnl: k.newNNL(m)}
	f, q, skip := k.nnsFor(m)
	switch {
	case q != nil:
		r.refiner, r.forward = segment.NewQuantRefiner(q.Clone()), q.Clone().ForwardQuant
	case f != nil:
		r.refiner, r.forward = segment.NewRefiner(f.Clone()), f.Clone().Forward
	}
	r.skip = skip
	return r
}

// chunk replays one clip and returns its masks in display order.
func (r *replayer) chunk(c clip, n int) ([]*video.Mask, error) {
	root := r.tr.begin("replay.chunk", 0, n)
	defer r.tr.end(root)
	dec, err := codec.NewStreamDecoder(c.data, codec.DecodeSideInfo)
	if err != nil {
		return nil, err
	}
	types, cfg := dec.Types(), dec.Config()
	w, h := dec.Geometry()
	masks := make([]*video.Mask, len(types))
	anchors := make(map[int]*video.Mask) // every anchor of the chunk: twelve frames need no pruning
	for {
		t0 := time.Now()
		out, err := dec.Next()
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if out == nil {
			return masks, nil
		}
		fid := r.tr.beginAt("replay.frame", root, n, t0)
		d := out.Info.Display
		if out.Info.Type.IsAnchor() {
			r.tr.add("codec.decode_anchor", fid, n, t0, t1)
			id := r.tr.begin("segment.nnl", fid, n)
			masks[d] = r.nnl.Segment(out.Pixels, d)
			r.tr.end(id)
			anchors[d] = masks[d]
			r.tr.end(fid)
			continue
		}
		r.tr.add("codec.decode_side", fid, n, t0, t1)
		id := r.tr.begin("segment.recon", fid, n)
		rec, err := segment.Reconstruct(out.Info, anchors, w, h, cfg.BlockSize)
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
		masks[d] = r.refine(out.Info, rec, types, anchors, w, h, cfg.BlockSize, fid, n)
		r.tr.end(fid)
	}
}

// refine is the B-frame tail: the residual skip's crop logic, then NN-S.
func (r *replayer) refine(info codec.FrameInfo, rec *segment.ReconMask, types []codec.FrameType, anchors map[int]*video.Mask, w, h, bs, parent, n int) *video.Mask {
	if r.refiner == nil {
		return rec.Binary()
	}
	prev, next := flanking(types, anchors, info.Display)
	var base *video.Mask
	x0, y0 := 0, 0
	if r.skip {
		rect, _, _, _ := segment.ResidualDirtyRect(info.BlockEnergy, w, h, bs, skipThreshold, segment.ResidualHalo)
		if rect.Empty() {
			return rec.Binary()
		}
		if !rect.Full(w, h) {
			base, x0, y0 = rec.Binary(), rect.X0, rect.Y0
			prev, next, rec = segment.CropMask(prev, rect), segment.CropMask(next, rect), rec.Crop(rect)
		}
	}
	t0 := time.Now()
	id := r.tr.beginAt("segment.refine", parent, n, t0)
	m := r.refiner.Refine(prev, rec, next)
	r.tr.end(id)
	// The forward pass again, alone, laid into the refine span as its child
	// so that the span's self time is Refine minus the network.
	f0 := time.Now()
	r.forward(segment.Sandwich(prev, rec, next))
	r.tr.add("nn.nns_forward", id, n, t0, t0.Add(time.Since(f0)))
	if base != nil {
		segment.PasteMask(base, m, x0, y0)
		return base
	}
	return m
}

// flanking returns the masks of the anchors nearest before and after
// display index d; a missing side borrows the other, as core does.
func flanking(types []codec.FrameType, anchors map[int]*video.Mask, d int) (prev, next *video.Mask) {
	for i := d - 1; i >= 0 && prev == nil; i-- {
		prev = anchors[i]
	}
	for i := d + 1; i < len(types) && next == nil; i++ {
		next = anchors[i]
	}
	if prev == nil {
		prev = next
	}
	if next == nil {
		next = prev
	}
	return prev, next
}

// check replays one clip and compares every mask with the reference: the
// replay must compute what core computes, or its timings describe
// something else.
func (r *replayer) check(c clip, ci int, ref *reference) error {
	masks, err := r.chunk(c, ci)
	if err != nil {
		return fmt.Errorf("replay clip %d: %w", ci, err)
	}
	for d, mk := range masks {
		if !ref.ok(ci, d, mk) {
			return fmt.Errorf("replay clip %d frame %d: mask differs from core's", ci, d)
		}
	}
	return nil
}
