package nn

import (
	"fmt"
	"math"
	"math/rand"

	"vrdann/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW tensors with symmetric zero padding.
type Conv2D struct {
	InC, OutC      int
	KH, KW         int
	Stride, Pad    int
	Weight         *tensor.Tensor // [OutC, InC, KH, KW]
	Bias           *tensor.Tensor // [OutC]
	gradW, gradB   *tensor.Tensor
	lastCols       *tensor.Tensor
	lastInH, lastW int
	macs           int64

	// Scratch of the batched inference path (batch.go), reused across
	// calls: the wide patch matrix, the pre-bias GEMM output, and the
	// header of the 2-D weight view.
	batchCols, batchMM *tensor.Tensor
	batchW             tensor.Tensor
}

// NewConv2D creates a convolution layer with He-initialized weights drawn
// from rng.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	fanIn := float64(inC * k * k)
	std := math.Sqrt(2 / fanIn)
	return &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
		Weight: tensor.Randn(rng, std, outC, inC, k, k),
		Bias:   tensor.New(outC),
		gradW:  tensor.New(outC, inC, k, k),
		gradB:  tensor.New(outC),
	}
}

// Forward implements Layer. The patch matrix (the only large per-call
// allocation of the im2col path) is reused across invocations whenever the
// input geometry repeats, and the lowering + GEMM split across cores.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [%d H W] input, got %v", c.InC, x.Shape))
	}
	h, w := x.Shape[1], x.Shape[2]
	outH := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	rows, cols := c.InC*c.KH*c.KW, outH*outW
	if c.lastCols != nil && c.lastCols.Shape[0] == rows && c.lastCols.Shape[1] == cols {
		tensor.Im2ColInto(c.lastCols, x, c.KH, c.KW, c.Stride, c.Pad)
	} else {
		c.lastCols = tensor.Im2Col(x, c.KH, c.KW, c.Stride, c.Pad)
	}
	w2d := c.Weight.Reshape(c.OutC, rows)
	out2d := tensor.MatMul(w2d, c.lastCols)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.Bias.Data[oc]
		row := out2d.Data[oc*outH*outW : (oc+1)*outH*outW]
		for i := range row {
			row[i] += b
		}
	}
	c.lastInH, c.lastW = h, w
	c.macs = int64(c.OutC) * int64(rows) * int64(outH*outW)
	return out2d.Reshape(c.OutC, outH, outW)
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	outH, outW := grad.Shape[1], grad.Shape[2]
	g2d := grad.Reshape(c.OutC, outH*outW)
	// Bias gradient: sum over spatial positions.
	for oc := 0; oc < c.OutC; oc++ {
		var s float32
		row := g2d.Data[oc*outH*outW : (oc+1)*outH*outW]
		for _, v := range row {
			s += v
		}
		c.gradB.Data[oc] += s
	}
	// Weight gradient: gradOut (OutC × P) × colsᵀ (P × K). MatMulBT streams
	// both operands row-major without materializing the transpose.
	gw := tensor.MatMulBT(g2d, c.lastCols)
	c.gradW.AddInPlace(gw.Reshape(c.Weight.Shape...))
	// Input gradient: Wᵀ × gradOut, scattered back to image space.
	w2d := c.Weight.Reshape(c.OutC, c.InC*c.KH*c.KW)
	gcols := tensor.MatMul(tensor.Transpose(w2d), g2d)
	return tensor.Col2Im(gcols, c.InC, c.lastInH, c.lastW, c.KH, c.KW, c.Stride, c.Pad)
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.Weight, c.Bias} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// MACs implements Layer.
func (c *Conv2D) MACs() int64 { return c.macs }

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d" }

// StaticMACs returns the multiply-accumulate count of this convolution for
// an input of the given spatial size, without running it.
func (c *Conv2D) StaticMACs(h, w int) int64 {
	outH := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	return int64(c.OutC) * int64(c.InC*c.KH*c.KW) * int64(outH*outW)
}

// WeightBytes returns the parameter footprint in bytes assuming 8-bit
// quantized deployment weights (as on the modeled INT8 NPU).
func (c *Conv2D) WeightBytes() int64 {
	return int64(c.Weight.Numel()) + int64(c.Bias.Numel())
}
