package nn

import (
	"fmt"

	"vrdann/internal/obs"
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

	// Scratch: patch matrix and accumulator, reused across calls.
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
	cols := ensure(&q.cols, rows, items*oHW)
	tensor.Im2ColBatchI8Into(cols, x, items, q.k, q.k, 1, q.pad)
	acc := ensure(&q.acc, q.outC, items*oHW)
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
	// float logit output.
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
	qin := ensure(&q.qin, items*3, h, w)
	QuantizeInto(qin.Data, x, q.InScale)
	t := q.obs.Clock()
	skip := ensure(&q.skip, items*f, h, w)
	q.conv1.forwardBatch(qin, items, skip, nil)
	q.obs.Span(obs.StageNNSConv1, -1, obs.KindNone, t)
	down := ensure(&q.down, items*f, h/2, w/2)
	maxPool2Batch(down.Data, skip.Data, items*f, h, w)
	t = q.obs.Clock()
	mid := ensure(&q.mid, items*f, h/2, w/2)
	q.conv2.forwardBatch(down, items, mid, nil)
	q.obs.Span(obs.StageNNSConv2, -1, obs.KindNone, t)
	up := ensure(&q.up, items*f, h, w)
	upsample2Batch(up.Data, mid.Data, items*f, h/2, w/2)
	cat := ensure(&q.cat, items*2*f, h, w)
	concatChannelsBatch(cat.Data, skip.Data, up.Data, items, f, f, h*w)
	t = q.obs.Clock()
	out := ensure(&q.out, items, h, w)
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
