package nn

import (
	"fmt"

	"vrdann/internal/obs"
	"vrdann/internal/par"
	"vrdann/internal/tensor"
)

// Quantized execution tier. Where quant.go simulates INT8 deployment in
// float arithmetic (fake quantization), this file actually executes it:
// int8 activations, per-output-channel int8 weights, int32 accumulation
// (tensor.MatMulI8), and a requantize step between layers — the software
// twin of the INT8 MAC datapath of the modeled NPU. Scale propagation is
// static: every scale is fixed at construction from calibration data, so
// steady-state inference touches no float except the per-layer requantize
// multiplier and the final dequantize to logits.
//
// The float path remains the differential reference: int8 results are
// gated on task accuracy (F-score delta against float), not bit identity —
// rounding activations onto the int8 grid is exactly the approximation
// being measured.

// ensureI8 returns a [d0,d1,d2] int8 tensor, reusing *t in place when its
// backing size already matches (shape header rebuilt in place). Contents
// are arbitrary; every user overwrites all elements. Fixed arity on
// purpose: a variadic shape heap-allocates its slice at every call, which
// would break the zero-steady-state-allocation guarantee of the batched
// int8 path.
func ensureI8(t **tensor.I8, d0, d1, d2 int) *tensor.I8 {
	numel := d0 * d1 * d2
	if *t != nil && len((*t).Data) == numel && len((*t).Shape) == 3 {
		s := (*t).Shape
		s[0], s[1], s[2] = d0, d1, d2
		return *t
	}
	*t = tensor.NewI8(d0, d1, d2)
	return *t
}

// ensureI8Mat is ensureI8 for 2-D patch-matrix scratch.
func ensureI8Mat(t **tensor.I8, rows, cols int) *tensor.I8 {
	numel := rows * cols
	if *t != nil && len((*t).Data) == numel && len((*t).Shape) == 2 {
		s := (*t).Shape
		s[0], s[1] = rows, cols
		return *t
	}
	*t = tensor.NewI8(rows, cols)
	return *t
}

// ensureI32Mat is ensureI8Mat for int32 accumulator scratch.
func ensureI32Mat(t **tensor.I32, rows, cols int) *tensor.I32 {
	numel := rows * cols
	if *t != nil && len((*t).Data) == numel && len((*t).Shape) == 2 {
		s := (*t).Shape
		s[0], s[1] = rows, cols
		return *t
	}
	*t = tensor.NewI32(rows, cols)
	return *t
}

// ensureF3 is ensureI8 for the float logit output, backed by the pooled
// float scratch like the float batched path's ensureBatch.
func ensureF3(t **tensor.Tensor, d0, d1, d2 int) *tensor.Tensor {
	numel := d0 * d1 * d2
	if *t != nil && len((*t).Data) == numel && len((*t).Shape) == 3 {
		s := (*t).Shape
		s[0], s[1], s[2] = d0, d1, d2
		return *t
	}
	if *t != nil {
		par.PutFloats((*t).Data)
	}
	*t = tensor.FromSlice(par.GetFloats(numel), d0, d1, d2)
	return *t
}

// requantClamp rounds a requantized value (half away from zero, matching
// math.Round) and clamps it to [lo, 127]; lo is 0 for layers with a fused
// ReLU and -127 otherwise.
func requantClamp(v float32, lo int32) int8 {
	var r int32
	if v >= 0 {
		r = int32(v + 0.5)
	} else {
		r = int32(v - 0.5)
	}
	if r > 127 {
		r = 127
	}
	if r < lo {
		r = lo
	}
	return int8(r)
}

// qconv is one statically quantized convolution layer: per-output-channel
// int8 weights and the per-channel affine folding of all three scales
// (input, weight, output) into one requantize multiplier. stride is fixed
// at 1 — every RefineNet convolution is stride-1 same-padded.
type qconv struct {
	inC, outC, k, pad int
	w                 *tensor.I8 // [outC, inC*k*k]
	// mult[oc] = inScale*wScale[oc]/outScale for requantizing layers, or
	// inScale*wScale[oc] for the final (dequantizing) layer.
	mult []float32
	// bias[oc] is the layer bias in output units: bias/outScale when
	// requantizing, the raw float bias when dequantizing.
	bias  []float32
	relu  bool // fuse ReLU into the requantize clamp (lo = 0)
	final bool // dequantize to float logits instead of requantizing

	// Pooled scratch: patch matrix and accumulator, reused across calls.
	cols *tensor.I8
	acc  *tensor.I32
}

// newQConv quantizes a trained float convolution per output channel. For
// requantizing layers outScale fixes the grid of the int8 output; final
// layers pass outScale 0 and dequantize.
func newQConv(c *Conv2D, inScale, outScale QuantScale, relu, final bool) *qconv {
	if c.KH != c.KW || c.Stride != 1 {
		panic(fmt.Sprintf("nn: quantized conv requires square stride-1 kernels, got %dx%d stride %d", c.KH, c.KW, c.Stride))
	}
	sz := c.InC * c.KH * c.KW
	q := &qconv{
		inC: c.InC, outC: c.OutC, k: c.KH, pad: c.Pad,
		w:    tensor.NewI8(c.OutC, sz),
		mult: make([]float32, c.OutC),
		bias: make([]float32, c.OutC),
		relu: relu, final: final,
	}
	for oc := 0; oc < c.OutC; oc++ {
		row := tensor.FromSlice(c.Weight.Data[oc*sz:(oc+1)*sz], sz)
		ws := ScaleFor(row)
		QuantizeInto(q.w.Data[oc*sz:(oc+1)*sz], row, ws)
		if final {
			q.mult[oc] = float32(inScale) * float32(ws)
			q.bias[oc] = c.Bias.Data[oc]
		} else {
			q.mult[oc] = float32(inScale) * float32(ws) / float32(outScale)
			q.bias[oc] = c.Bias.Data[oc] / float32(outScale)
		}
	}
	return q
}

// clone shares the immutable weights and scales but owns fresh scratch, so
// clones can run on different goroutines.
func (q *qconv) clone() *qconv {
	c := *q
	c.cols, c.acc = nil, nil
	return &c
}

// forwardBatch runs the quantized convolution over items packed item-major
// in x ([items*inC, H, W]). Requantizing layers write item-major int8 into
// out8; the final layer writes float into outF. The requantize (or
// dequantize) fuses into the repack from the GEMM's [outC, n*oHW] layout,
// mirroring the float forwardBatchInto.
func (q *qconv) forwardBatch(x *tensor.I8, items int, out8 *tensor.I8, outF *tensor.Tensor) {
	h, w := x.Shape[1], x.Shape[2]
	outH := tensor.ConvOutSize(h, q.k, 1, q.pad)
	outW := tensor.ConvOutSize(w, q.k, 1, q.pad)
	rows, oHW := q.inC*q.k*q.k, outH*outW
	cols := ensureI8Mat(&q.cols, rows, items*oHW)
	tensor.Im2ColBatchI8Into(cols, x, items, q.k, q.k, 1, q.pad)
	acc := ensureI32Mat(&q.acc, q.outC, items*oHW)
	tensor.MatMulI8Into(acc, q.w, cols)
	lo := int32(-127)
	if q.relu {
		lo = 0
	}
	for i := 0; i < items; i++ {
		for oc := 0; oc < q.outC; oc++ {
			src := acc.Data[oc*items*oHW+i*oHW : oc*items*oHW+(i+1)*oHW]
			m, b := q.mult[oc], q.bias[oc]
			if q.final {
				dst := outF.Data[(i*q.outC+oc)*oHW : (i*q.outC+oc+1)*oHW]
				for j, v := range src {
					dst[j] = float32(v)*m + b
				}
			} else {
				dst := out8.Data[(i*q.outC+oc)*oHW : (i*q.outC+oc+1)*oHW]
				for j, v := range src {
					dst[j] = requantClamp(float32(v)*m+b, lo)
				}
			}
		}
	}
}

// maxPool2BatchI8 is 2×2 max pooling over a wide int8 batch tensor. Max is
// order-preserving, so pooling commutes with quantization and needs no
// rescale.
func maxPool2BatchI8(dst, x *tensor.I8) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	// Serial fast path BEFORE the closure literal: the parallel closure is
	// heap-allocated at its creation site, which would break the batched
	// path's zero-steady-state-allocation guarantee on small inputs.
	grain := par.Grain(c, h*w, par.MinWorkFloats)
	if grain >= c || par.MaxWorkers() == 1 {
		maxPool2I8Rows(dst, x, 0, c)
		return
	}
	par.For(c, grain, func(clo, chi int) {
		maxPool2I8Rows(dst, x, clo, chi)
	})
}

func maxPool2I8Rows(dst, x *tensor.I8, clo, chi int) {
	h, w := x.Shape[1], x.Shape[2]
	oh, ow := h/2, w/2
	for ch := clo; ch < chi; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				base := (ch*h+oy*2)*w + ox*2
				best := x.Data[base]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := x.Data[base+dy*w+dx]; v > best {
							best = v
						}
					}
				}
				dst.Data[(ch*oh+oy)*ow+ox] = best
			}
		}
	}
}

// upsample2BatchI8 is nearest-neighbor ×2 upsampling over a wide int8
// batch tensor; value-preserving, so no rescale.
func upsample2BatchI8(dst, x *tensor.I8) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	// Serial fast path before the closure literal, as in maxPool2BatchI8.
	grain := par.Grain(c, 4*h*w, par.MinWorkFloats)
	if grain >= c || par.MaxWorkers() == 1 {
		upsample2I8Rows(dst, x, 0, c)
		return
	}
	par.For(c, grain, func(clo, chi int) {
		upsample2I8Rows(dst, x, clo, chi)
	})
}

func upsample2I8Rows(dst, x *tensor.I8, clo, chi int) {
	h, w := x.Shape[1], x.Shape[2]
	for ch := clo; ch < chi; ch++ {
		for y := 0; y < h; y++ {
			srcRow := (ch*h + y) * w
			for x2 := 0; x2 < w; x2++ {
				v := x.Data[srcRow+x2]
				d0 := (ch*h*2+y*2)*w*2 + x2*2
				d1 := d0 + w*2
				dst.Data[d0] = v
				dst.Data[d0+1] = v
				dst.Data[d1] = v
				dst.Data[d1+1] = v
			}
		}
	}
}

// concatChannelsBatchI8 interleaves two item-major int8 batch tensors along
// the channel axis. Both operands must share one quantization scale — the
// QuantRefineNet keeps skip and upsampled mid on the same hidden grid for
// exactly this reason.
func concatChannelsBatchI8(dst, a, b *tensor.I8, n int) {
	ca, cb := a.Shape[0]/n, b.Shape[0]/n
	hw := a.Shape[1] * a.Shape[2]
	for i := 0; i < n; i++ {
		copy(dst.Data[i*(ca+cb)*hw:], a.Data[i*ca*hw:(i+1)*ca*hw])
		copy(dst.Data[(i*(ca+cb)+ca)*hw:], b.Data[i*cb*hw:(i+1)*cb*hw])
	}
}

// QuantRefineNet is NN-S compiled to the int8 tier: per-channel int8
// weights, int8 activations on two static grids (input and hidden), int32
// accumulation, requantize between layers. The float source network is NOT
// modified, so it remains the differential reference.
//
// Scale propagation: the sandwich input quantizes at InScale; conv1+ReLU
// requantizes onto the shared hidden grid HidScale; pooling and upsampling
// preserve values, so conv2 reads and writes HidScale, and the skip
// concatenation needs no rescale; conv3 dequantizes its int32 accumulators
// straight to float logits (only their sign is consumed downstream).
type QuantRefineNet struct {
	// Features is the hidden feature-map count, matching the source net.
	Features int
	// InScale quantizes the sandwich input (values in [0,1]).
	InScale QuantScale
	// HidScale is the shared grid of both hidden activations.
	HidScale QuantScale

	conv1, conv2, conv3 *qconv

	// Scratch, reused across calls: quantized input, activations, and the
	// float logit output (pooled).
	qin, skip, down, mid, up, cat *tensor.I8
	out                           *tensor.Tensor

	obs *obs.Collector
}

// NewQuantRefineNet compiles a trained RefineNet to the int8 execution
// tier, calibrating the two activation grids on the given representative
// sandwich inputs. The source network is left untouched.
func NewQuantRefineNet(net *RefineNet, calibration []*tensor.Tensor) (*QuantRefineNet, error) {
	if len(calibration) == 0 {
		return nil, fmt.Errorf("nn: INT8 calibration requires at least one sample")
	}
	// Calibrate on a clone: Forward caches activations on the layers, and
	// the caller's network must stay pristine as the float reference.
	cnet := net.Clone()
	cnet.SetObserver(nil)
	maxAbs := func(m float32, t *tensor.Tensor) float32 {
		for _, v := range t.Data {
			if v != v { // NaN carries no range information
				continue
			}
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		return m
	}
	var inMax, hidMax float32
	for _, x := range calibration {
		inMax = maxAbs(inMax, x)
		skip := cnet.Relu1.Forward(cnet.Conv1.Forward(x))
		hidMax = maxAbs(hidMax, skip)
		mid := cnet.Relu2.Forward(cnet.Conv2.Forward(cnet.Down.Forward(skip)))
		hidMax = maxAbs(hidMax, mid)
	}
	scale := func(m float32) QuantScale {
		if m == 0 {
			return 1
		}
		return QuantScale(m / 127)
	}
	q := &QuantRefineNet{
		Features: net.Features,
		InScale:  scale(inMax),
		HidScale: scale(hidMax),
	}
	q.conv1 = newQConv(net.Conv1, q.InScale, q.HidScale, true, false)
	q.conv2 = newQConv(net.Conv2, q.HidScale, q.HidScale, true, false)
	q.conv3 = newQConv(net.Conv3, q.HidScale, 0, false, true)
	return q, nil
}

// SetObserver attaches a metrics collector for per-layer timing; nil
// disables it.
func (q *QuantRefineNet) SetObserver(c *obs.Collector) { q.obs = c }

// Observer returns the attached collector (nil when disabled).
func (q *QuantRefineNet) Observer() *obs.Collector { return q.obs }

// Clone returns an independent instance sharing the (immutable) quantized
// weights and scales but owning its own scratch, for concurrent inference.
func (q *QuantRefineNet) Clone() *QuantRefineNet {
	c := &QuantRefineNet{
		Features: q.Features,
		InScale:  q.InScale,
		HidScale: q.HidScale,
		conv1:    q.conv1.clone(),
		conv2:    q.conv2.clone(),
		conv3:    q.conv3.clone(),
		obs:      q.obs, // the collector is shared and concurrency-safe
	}
	return c
}

// ForwardQuant runs int8 inference on a [3,H,W] sandwich input and returns
// [1,H,W] float logits. The returned tensor aliases network-owned scratch:
// it is valid until the next forward on this instance.
func (q *QuantRefineNet) ForwardQuant(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[0] != 3 {
		panic(fmt.Sprintf("nn: QuantRefineNet.ForwardQuant expects [3 H W] input, got %v", x.Shape))
	}
	return q.ForwardBatchQuant(x, 1)
}

// ForwardBatchQuant runs int8 inference over a batch of items sandwich
// inputs packed item-major into x ([items*3, H, W]) and returns
// [items, H, W] float logits. H and W must be even (the pooling/upsampling
// pair needs it), as for the float ForwardBatch. The returned tensor
// aliases network-owned scratch — valid until the next forward on this
// instance; callers must copy anything they keep. Per-layer conv timings
// are recorded against the attached observer exactly like the float path.
func (q *QuantRefineNet) ForwardBatchQuant(x *tensor.Tensor, items int) *tensor.Tensor {
	if len(x.Shape) != 3 || items <= 0 || x.Shape[0] != 3*items {
		panic(fmt.Sprintf("nn: QuantRefineNet.ForwardBatchQuant expects [%d*3 H W] input, got %v", items, x.Shape))
	}
	h, w := x.Shape[1], x.Shape[2]
	f := q.Features
	qin := ensureI8(&q.qin, items*3, h, w)
	QuantizeInto(qin.Data, x, q.InScale)
	t := q.obs.Clock()
	skip := ensureI8(&q.skip, items*f, h, w)
	q.conv1.forwardBatch(qin, items, skip, nil)
	q.obs.Span(obs.StageNNSConv1, -1, obs.KindNone, t)
	down := ensureI8(&q.down, items*f, h/2, w/2)
	maxPool2BatchI8(down, skip)
	t = q.obs.Clock()
	mid := ensureI8(&q.mid, items*f, h/2, w/2)
	q.conv2.forwardBatch(down, items, mid, nil)
	q.obs.Span(obs.StageNNSConv2, -1, obs.KindNone, t)
	up := ensureI8(&q.up, items*f, h, w)
	upsample2BatchI8(up, mid)
	cat := ensureI8(&q.cat, items*2*f, h, w)
	concatChannelsBatchI8(cat, skip, up, items)
	t = q.obs.Clock()
	out := ensureF3(&q.out, items, h, w)
	q.conv3.forwardBatch(cat, items, nil, out)
	q.obs.Span(obs.StageNNSConv3, -1, obs.KindNone, t)
	return out
}

// WeightBytes returns the int8 parameter footprint — here the literal
// storage, not a what-if estimate.
func (q *QuantRefineNet) WeightBytes() int64 {
	total := int64(0)
	for _, c := range []*qconv{q.conv1, q.conv2, q.conv3} {
		total += int64(len(c.w.Data)) + int64(len(c.bias))
	}
	return total
}
