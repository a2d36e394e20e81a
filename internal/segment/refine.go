package segment

import (
	"fmt"

	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// Sandwich builds the three-channel NN-S input of Sec III-A-2: channel 0 is
// the segmentation of the immediately preceding reference frame, channel 1
// the 2-bit reconstruction of the current B-frame (as 0/0.5/1 values), and
// channel 2 the segmentation of the immediately following reference frame.
func Sandwich(prev *video.Mask, recon *ReconMask, next *video.Mask) *tensor.Tensor {
	x := tensor.New(3, recon.H, recon.W)
	sandwichInto(x.Data, prev, recon, next)
	return x
}

// sandwichInto is Sandwich writing into a caller-owned 3*H*W slice; every
// element is overwritten, so the buffer needs no zeroing between frames.
func sandwichInto(x []float32, prev *video.Mask, recon *ReconMask, next *video.Mask) {
	w, h := recon.W, recon.H
	plane := h * w
	for y := 0; y < h; y++ {
		for xx := 0; xx < w; xx++ {
			i := y*w + xx
			x[i] = float32(prev.Pix[i])
			x[plane+i] = recon.Value(xx, y)
			x[2*plane+i] = float32(next.Pix[i])
		}
	}
}

// RefineJob is one B-frame refinement request: the flanking anchor
// segmentations and the MV-reconstructed current frame.
type RefineJob struct {
	Prev *video.Mask
	Rec  *ReconMask
	Next *video.Mask
}

// Refiner is the NN-S executor: it runs the refinement network over one or
// many B-frames per call, in one fused inference forward. Float or int8 is
// decided once, by the constructor; the batch size is a property of the
// call. The packed input tensor is reused across calls, so steady-state
// refinement allocates only its result. A Refiner is not safe for
// concurrent use (the network's forward reuses per-instance scratch);
// concurrent pipelines hold one Refiner per worker over a Clone of the
// network.
type Refiner struct {
	// forward is the wrapped network's batched inference forward: [n*3, H,
	// W] sandwiches in, [n, H, W] logits (aliasing network scratch) out.
	forward func(x *tensor.Tensor, items int) *tensor.Tensor
	obs     *obs.Collector // the network's observer when it was wrapped
	in      tensor.Tensor
}

// NewRefiner wraps a float refinement network. Attach the network's
// observer, if any, before wrapping it.
func NewRefiner(net *nn.RefineNet) *Refiner {
	return &Refiner{forward: net.ForwardBatch, obs: net.Observer()}
}

// NewQuantRefiner wraps an int8-compiled refinement network: the same
// decisions on the quantized tier, gated on F-score, not bit identity.
func NewQuantRefiner(q *nn.QuantRefineNet) *Refiner {
	return &Refiner{forward: q.ForwardBatchQuant, obs: q.Observer()}
}

// Refine runs NN-S on the sandwich of (prev, recon, next) and returns the
// refined binary segmentation of the B-frame: a batch of one.
func (r *Refiner) Refine(prev *video.Mask, recon *ReconMask, next *video.Mask) *video.Mask {
	return r.RefineBatch([]RefineJob{{Prev: prev, Rec: recon, Next: next}})[0]
}

// RefineBatch refines all jobs — which must share one geometry — in a
// single fused forward pass and returns one mask per job, each bitwise
// equal to refining that job alone. The caller groups jobs by geometry;
// mixing sizes panics.
func (r *Refiner) RefineBatch(jobs []RefineJob) []*video.Mask {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	h, w := jobs[0].Rec.H, jobs[0].Rec.W
	for _, j := range jobs[1:] {
		if j.Rec.H != h || j.Rec.W != w {
			panic(fmt.Sprintf("segment: RefineBatch geometry mix: %dx%d vs %dx%d", w, h, j.Rec.W, j.Rec.H))
		}
	}
	item := 3 * h * w
	if len(r.in.Data) != n*item {
		r.in.Data = make([]float32, n*item)
	}
	r.in.Shape = append(r.in.Shape[:0], n*3, h, w)
	t := r.obs.Clock()
	for i, j := range jobs {
		sandwichInto(r.in.Data[i*item:(i+1)*item], j.Prev, j.Rec, j.Next)
	}
	r.obs.Span(obs.StageSandwich, -1, obs.KindNone, t)
	logits := r.forward(&r.in, n)
	masks := make([]*video.Mask, n)
	for i := range masks {
		m := video.NewMask(w, h)
		for p, v := range logits.Data[i*h*w : (i+1)*h*w] {
			if v > 0 {
				m.Pix[p] = 1
			}
		}
		masks[i] = m
	}
	return masks
}

// Refine runs NN-S on the sandwich input and returns the refined binary
// segmentation of the B-frame. One-shot form of Refiner.Refine.
func Refine(net *nn.RefineNet, prev *video.Mask, recon *ReconMask, next *video.Mask) *video.Mask {
	return NewRefiner(net).Refine(prev, recon, next)
}

// MaskToTensor converts a binary mask to a [1,H,W] tensor.
func MaskToTensor(m *video.Mask) *tensor.Tensor {
	t := tensor.New(1, m.H, m.W)
	for i, v := range m.Pix {
		t.Data[i] = float32(v)
	}
	return t
}

// FrameToTensor converts a luma frame to a [1,H,W] tensor scaled to [0,1].
func FrameToTensor(f *video.Frame) *tensor.Tensor {
	t := tensor.New(1, f.H, f.W)
	for i, v := range f.Pix {
		t.Data[i] = float32(v) / 255
	}
	return t
}
