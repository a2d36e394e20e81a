package nn

import (
	"fmt"

	"vrdann/internal/obs"
	"vrdann/internal/par"
	"vrdann/internal/tensor"
)

// Batched inference path. The serving layer's dynamic batching engine
// coalesces NN work from many streams into one fused execution per layer —
// the software reading of the paper's agent unit, which reorders work to
// minimize NN-L/NN-S kernel switching. A batch of n CHW items is packed
// item-major into one wide tensor ([n*C, H, W]); convolutions lower the
// whole batch into a single column-concatenated patch matrix and run ONE
// MatMul per layer, and the channel-independent layers (pool, upsample,
// ReLU) treat the wide tensor as just more channels.
//
// Two invariants carry the whole design:
//
//  1. Bit identity. Every output element of the wide MatMul is produced by
//     the same serial accumulation order over the same values as the
//     per-item MatMul (column concatenation adds columns, never reorders a
//     column's dot product), and every other layer is element- or
//     channel-local. A batched forward is therefore bitwise equal to n
//     serial forwards at any batch size.
//  2. No steady-state allocation. All intermediates live in scratch
//     buffers owned by the network instance and reused across calls — the
//     per-frame ~1.6 MB of garbage the training forward allocates is what
//     this path exists to eliminate.
//
// Batched forwards are inference-only (no activation caches for Backward)
// and not safe for concurrent use of one instance. The channel-local
// layers and the scratch helper are generic over the element type, so the
// float network here and the int8 network in quantexec.go share them.

// ensure returns *t as a tensor of the given shape, reusing its backing
// array and shape header in place when the element count already matches,
// so a steady-state call allocates nothing (dims does not escape: its
// values are copied into the header). S is any of tensor.Tensor, tensor.I8
// and tensor.I32 — they share one struct layout, which is all the
// constraint says. Contents are arbitrary; every user overwrites all
// elements.
func ensure[T float32 | int8 | int32, S ~struct {
	Shape []int
	Data  []T
}](t **S, dims ...int) *S {
	numel := 1
	for _, d := range dims {
		numel *= d
	}
	if *t == nil {
		*t = new(S)
	}
	// Field access through a type parameter is not allowed; a value
	// conversion to the common layout (two slice headers) is.
	v := struct {
		Shape []int
		Data  []T
	}(**t)
	if len(v.Data) != numel {
		v.Data = make([]T, numel)
	}
	v.Shape = append(v.Shape[:0], dims...)
	**t = S(v)
	return *t
}

// ForwardBatch runs the convolution over a batch of n items packed
// item-major into x ([n*InC, H, W]) and returns [n*OutC, outH, outW],
// bit-identical to n serial Forward calls. Inference-only: no state for
// Backward is recorded and MACs is not updated.
func (c *Conv2D) ForwardBatch(x *tensor.Tensor, n int) *tensor.Tensor {
	if len(x.Shape) != 3 || n <= 0 || x.Shape[0] != n*c.InC {
		panic(fmt.Sprintf("nn: Conv2D.ForwardBatch expects [%d*%d H W] input, got %v", n, c.InC, x.Shape))
	}
	outH := tensor.ConvOutSize(x.Shape[1], c.KH, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(x.Shape[2], c.KW, c.Stride, c.Pad)
	dst := tensor.New(n*c.OutC, outH, outW)
	c.forwardBatchInto(dst, x, n)
	return dst
}

// forwardBatchInto is ForwardBatch writing into a caller-owned
// [n*OutC, outH, outW] tensor, with the patch matrix and GEMM output held
// in the layer's scratch.
func (c *Conv2D) forwardBatchInto(dst, x *tensor.Tensor, n int) {
	h, w := x.Shape[1], x.Shape[2]
	outH := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	rows, oHW := c.InC*c.KH*c.KW, outH*outW
	cols := ensure(&c.batchCols, rows, n*oHW)
	tensor.Im2ColBatchInto(cols, x, n, c.KH, c.KW, c.Stride, c.Pad)
	mm := ensure(&c.batchMM, c.OutC, n*oHW)
	// A 2-D view of the live weights, rebuilt in place per call: Reshape
	// would allocate a header, a cached view would go stale when training
	// or LoadParams replaces c.Weight.
	w2d := &c.batchW
	w2d.Data, w2d.Shape = c.Weight.Data, append(w2d.Shape[:0], c.OutC, rows)
	tensor.MatMulInto(mm, w2d, cols)
	// The wide GEMM leaves the batch in [OutC, n*oHW] (output-channel-major)
	// layout; re-pack item-major so the next layer sees each item's channels
	// contiguously, fusing the bias add (one add per element, exactly as the
	// serial path) into the copy.
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := mm.Data[oc*n*oHW+i*oHW : oc*n*oHW+(i+1)*oHW]
			out := dst.Data[(i*c.OutC+oc)*oHW : (i*c.OutC+oc+1)*oHW]
			b := c.Bias.Data[oc]
			for j, v := range src {
				out[j] = v + b
			}
		}
	}
}

// reluInPlace applies max(0, v) in place with the exact comparison the
// serial ReLU layer uses (v > 0 keeps v, anything else — including NaN —
// becomes 0).
func reluInPlace(x *tensor.Tensor) {
	for i, v := range x.Data {
		if v > 0 {
			x.Data[i] = v
		} else {
			x.Data[i] = 0
		}
	}
}

// maxPool2Batch is 2×2 max pooling over a wide [c, h, w] batch tensor,
// minus MaxPool2.Forward's argmax cache (inference-only). Pooling is
// channel-local, so the packed [n*C, H, W] layout needs no special
// handling, and max is order-preserving, so on the int8 tier it commutes
// with quantization and needs no rescale.
func maxPool2Batch[T float32 | int8](dst, x []T, c, h, w int) {
	// Serial fast path BEFORE the closure literal: the parallel closure is
	// heap-allocated at its creation site, which would break the batched
	// path's zero-steady-state-allocation guarantee on small inputs.
	grain := par.Grain(c, h*w, par.MinWorkFloats)
	if grain >= c || par.MaxWorkers() == 1 {
		maxPool2Rows(dst, x, h, w, 0, c)
		return
	}
	par.For(c, grain, func(clo, chi int) {
		maxPool2Rows(dst, x, h, w, clo, chi)
	})
}

func maxPool2Rows[T float32 | int8](dst, x []T, h, w, clo, chi int) {
	oh, ow := h/2, w/2
	for ch := clo; ch < chi; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				base := (ch*h+oy*2)*w + ox*2
				best := x[base]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := x[base+dy*w+dx]; v > best {
							best = v
						}
					}
				}
				dst[(ch*oh+oy)*ow+ox] = best
			}
		}
	}
}

// upsample2Batch is nearest-neighbor ×2 upsampling of a wide [c, h, w]
// batch tensor into [c, 2h, 2w]; channel-local and value-preserving, so no
// rescale on the int8 tier.
func upsample2Batch[T float32 | int8](dst, x []T, c, h, w int) {
	// Serial fast path before the closure literal, as in maxPool2Batch.
	grain := par.Grain(c, 4*h*w, par.MinWorkFloats)
	if grain >= c || par.MaxWorkers() == 1 {
		upsample2Rows(dst, x, h, w, 0, c)
		return
	}
	par.For(c, grain, func(clo, chi int) {
		upsample2Rows(dst, x, h, w, clo, chi)
	})
}

func upsample2Rows[T float32 | int8](dst, x []T, h, w, clo, chi int) {
	for ch := clo; ch < chi; ch++ {
		for y := 0; y < h; y++ {
			srcRow := (ch*h + y) * w
			for x2 := 0; x2 < w; x2++ {
				v := x[srcRow+x2]
				d0 := (ch*h*2+y*2)*w*2 + x2*2
				d1 := d0 + w*2
				dst[d0] = v
				dst[d0+1] = v
				dst[d1] = v
				dst[d1+1] = v
			}
		}
	}
}

// concatChannelsBatch interleaves two item-major batch tensors of ca and cb
// channels per item (hw elements each) along the channel axis: item i of
// dst is ConcatChannels(item i of a, item i of b). On the int8 tier both
// operands must share one quantization scale — QuantRefineNet keeps skip
// and upsampled mid on the same hidden grid for exactly this reason.
func concatChannelsBatch[T float32 | int8](dst, a, b []T, n, ca, cb, hw int) {
	for i := 0; i < n; i++ {
		copy(dst[i*(ca+cb)*hw:], a[i*ca*hw:(i+1)*ca*hw])
		copy(dst[(i*(ca+cb)+ca)*hw:], b[i*cb*hw:(i+1)*cb*hw])
	}
}

// batchScratch holds the activation buffers of RefineNet.ForwardBatch.
type batchScratch struct {
	skip, down, mid, up, cat, out *tensor.Tensor
}

// ForwardBatch runs NN-S over a batch of n sandwich inputs packed
// item-major into x ([n*3, H, W]) and returns [n, H, W] logits — item i's
// logit plane bitwise equal to Forward on item i alone. H and W must be
// even, as for Forward. The returned tensor aliases network-owned scratch:
// it is valid until the next ForwardBatch call on this instance, and
// callers must copy anything they keep. Per-layer conv timings are recorded
// against the attached observer exactly like the serial forward (one span
// per fused layer, not per item).
func (n *RefineNet) ForwardBatch(x *tensor.Tensor, items int) *tensor.Tensor {
	if len(x.Shape) != 3 || items <= 0 || x.Shape[0] != 3*items {
		panic(fmt.Sprintf("nn: RefineNet.ForwardBatch expects [%d*3 H W] input, got %v", items, x.Shape))
	}
	h, w := x.Shape[1], x.Shape[2]
	f := n.Features
	sc := &n.bsc
	t := n.obs.Clock()
	skip := ensure(&sc.skip, items*f, h, w)
	n.Conv1.forwardBatchInto(skip, x, items)
	n.obs.Span(obs.StageNNSConv1, -1, obs.KindNone, t)
	reluInPlace(skip) // in place: conv1's raw output is never read again
	down := ensure(&sc.down, items*f, h/2, w/2)
	maxPool2Batch(down.Data, skip.Data, items*f, h, w)
	t = n.obs.Clock()
	mid := ensure(&sc.mid, items*f, h/2, w/2)
	n.Conv2.forwardBatchInto(mid, down, items)
	n.obs.Span(obs.StageNNSConv2, -1, obs.KindNone, t)
	reluInPlace(mid)
	up := ensure(&sc.up, items*f, h, w)
	upsample2Batch(up.Data, mid.Data, items*f, h/2, w/2)
	cat := ensure(&sc.cat, items*2*f, h, w)
	concatChannelsBatch(cat.Data, skip.Data, up.Data, items, f, f, h*w)
	t = n.obs.Clock()
	out := ensure(&sc.out, items, h, w)
	n.Conv3.forwardBatchInto(out, cat, items)
	n.obs.Span(obs.StageNNSConv3, -1, obs.KindNone, t)
	return out
}
