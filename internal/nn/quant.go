package nn

import (
	"fmt"
	"math"

	"vrdann/internal/tensor"
)

// The NPU the paper evaluates on (Ascend 310) executes INT8; this file
// provides symmetric per-tensor quantization so the networks can be
// deployed the way the modeled hardware runs them, and so the accuracy
// cost of INT8 inference can be measured.

// QuantScale is a symmetric per-tensor quantization scale (zero-point 0):
// real ≈ scale × int8.
type QuantScale float32

// ScaleFor returns the symmetric scale covering the tensor's dynamic range
// with the int8 grid. An all-zero tensor gets scale 1. NaN elements carry
// no range information and are ignored; an ±Inf element clamps the range
// to the largest finite float32, keeping the scale finite so every finite
// value still quantizes sensibly.
func ScaleFor(t *tensor.Tensor) QuantScale {
	var m float32
	for _, v := range t.Data {
		if v != v { // NaN
			continue
		}
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	if m == 0 {
		return 1
	}
	if math.IsInf(float64(m), 0) {
		m = math.MaxFloat32
	}
	return QuantScale(m / 127)
}

// quantClamp rounds one real value onto the int8 grid of scale s: NaN maps
// to the zero point (it carries no signal, and Go's float-to-int conversion
// of NaN is implementation-specific), ±Inf saturates like any out-of-range
// value.
func quantClamp(v float32, s QuantScale) int8 {
	q := math.Round(float64(v) / float64(s))
	switch {
	case q != q: // NaN
		q = 0
	case q > 127:
		q = 127
	case q < -127:
		q = -127
	}
	return int8(q)
}

// Quantize converts a tensor to int8 under the given scale (values clamp to
// [-127, 127]; NaN maps to 0).
func Quantize(t *tensor.Tensor, s QuantScale) []int8 {
	out := make([]int8, t.Numel())
	QuantizeInto(out, t, s)
	return out
}

// QuantizeInto is Quantize writing into a caller-owned slice of length
// t.Numel(), the allocation-free form the int8 inference path uses for its
// input activations.
func QuantizeInto(dst []int8, t *tensor.Tensor, s QuantScale) {
	if len(dst) != t.Numel() {
		panic(fmt.Sprintf("nn: QuantizeInto dst length %d does not match tensor %v", len(dst), t.Shape))
	}
	for i, v := range t.Data {
		dst[i] = quantClamp(v, s)
	}
}

// Dequantize reconstructs a float tensor from int8 data.
func Dequantize(q []int8, s QuantScale, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	if len(q) != t.Numel() {
		panic(fmt.Sprintf("nn: Dequantize length %d does not match shape %v", len(q), shape))
	}
	for i, v := range q {
		t.Data[i] = float32(v) * float32(s)
	}
	return t
}
