package nn

import (
	"fmt"

	"vrdann/internal/par"
	"vrdann/internal/tensor"
)

// MaxPool2 is a 2×2, stride-2 max-pooling layer (the "downsampling" stage of
// NN-S in the paper). Odd trailing rows/columns are dropped, matching common
// framework semantics.
type MaxPool2 struct {
	argmax  []int
	inShape []int
}

// NewMaxPool2 returns a 2×2 stride-2 max-pool layer.
func NewMaxPool2() *MaxPool2 { return &MaxPool2{} }

// Forward implements Layer.
func (p *MaxPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: MaxPool2 expects CHW input, got %v", x.Shape))
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := h/2, w/2
	out := tensor.New(c, oh, ow)
	if cap(p.argmax) < out.Numel() {
		p.argmax = make([]int, out.Numel())
	}
	p.argmax = p.argmax[:out.Numel()]
	p.inShape = x.Shape
	// Channels write disjoint slices of out/argmax, so they pool in
	// parallel.
	par.For(c, par.Grain(c, h*w, par.MinWorkFloats), func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					base := (ch*h+oy*2)*w + ox*2
					best, bestIdx := x.Data[base], base
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := base + dy*w + dx
							if x.Data[idx] > best {
								best, bestIdx = x.Data[idx], idx
							}
						}
					}
					o := (ch*oh+oy)*ow + ox
					out.Data[o] = best
					p.argmax[o] = bestIdx
				}
			}
		}
	})
	return out
}

// Backward implements Layer.
func (p *MaxPool2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(p.inShape...)
	h, w := p.inShape[1], p.inShape[2]
	oh, ow := h/2, w/2
	// An output cell's argmax lies inside the same channel, so per-channel
	// blocks scatter into disjoint regions of out.
	par.For(p.inShape[0], par.Grain(p.inShape[0], h*w, par.MinWorkFloats), func(clo, chi int) {
		lo, hi := clo*oh*ow, chi*oh*ow
		for o := lo; o < hi; o++ {
			out.Data[p.argmax[o]] += grad.Data[o]
		}
	})
	return out
}

// Params implements Layer.
func (p *MaxPool2) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *MaxPool2) Grads() []*tensor.Tensor { return nil }

// MACs implements Layer.
func (p *MaxPool2) MACs() int64 { return 0 }

// Name implements Layer.
func (p *MaxPool2) Name() string { return "maxpool2" }

// Upsample2 doubles spatial resolution with nearest-neighbor replication
// (the "upsampling" stage of NN-S).
type Upsample2 struct {
	inShape []int
}

// NewUpsample2 returns a ×2 nearest-neighbor upsampling layer.
func NewUpsample2() *Upsample2 { return &Upsample2{} }

// Forward implements Layer.
func (u *Upsample2) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: Upsample2 expects CHW input, got %v", x.Shape))
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	u.inShape = x.Shape
	out := tensor.New(c, h*2, w*2)
	upsample2Batch(out.Data, x.Data, c, h, w)
	return out
}

// Backward implements Layer.
func (u *Upsample2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c, h, w := u.inShape[0], u.inShape[1], u.inShape[2]
	out := tensor.New(c, h, w)
	par.For(c, par.Grain(c, 4*h*w, par.MinWorkFloats), func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					d0 := (ch*h*2+y*2)*w*2 + x*2
					d1 := d0 + w*2
					out.Data[(ch*h+y)*w+x] = grad.Data[d0] + grad.Data[d0+1] + grad.Data[d1] + grad.Data[d1+1]
				}
			}
		}
	})
	return out
}

// Params implements Layer.
func (u *Upsample2) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (u *Upsample2) Grads() []*tensor.Tensor { return nil }

// MACs implements Layer.
func (u *Upsample2) MACs() int64 { return 0 }

// Name implements Layer.
func (u *Upsample2) Name() string { return "upsample2" }

// ConcatChannels concatenates two CHW tensors along the channel axis.
func ConcatChannels(a, b *tensor.Tensor) *tensor.Tensor {
	if len(a.Shape) != 3 || len(b.Shape) != 3 || a.Shape[1] != b.Shape[1] || a.Shape[2] != b.Shape[2] {
		panic(fmt.Sprintf("nn: ConcatChannels spatial mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := tensor.New(a.Shape[0]+b.Shape[0], a.Shape[1], a.Shape[2])
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// SplitChannels splits grad into the two channel groups produced by
// ConcatChannels.
func SplitChannels(grad *tensor.Tensor, ca int) (ga, gb *tensor.Tensor) {
	h, w := grad.Shape[1], grad.Shape[2]
	cb := grad.Shape[0] - ca
	ga = tensor.New(ca, h, w)
	gb = tensor.New(cb, h, w)
	copy(ga.Data, grad.Data[:ca*h*w])
	copy(gb.Data, grad.Data[ca*h*w:])
	return ga, gb
}
