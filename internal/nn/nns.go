package nn

import (
	"math/rand"

	"vrdann/internal/obs"
	"vrdann/internal/tensor"
)

// RefineNet is the lightweight refinement network the paper calls NN-S:
// a 3-convolution network with a downsampling branch and a skip connection —
// "convolution, downsampling, convolution, upsampling, concatenate and
// convolution layers" (Sec III-A-2).
//
// Input is the sandwich three-channel image (previous reference
// segmentation, reconstructed current B-frame, following reference
// segmentation); output is a single-channel logit map of the refined
// segmentation.
type RefineNet struct {
	// Features is the hidden feature-map count the network was built with.
	Features int

	Conv1 *Conv2D // 3 -> F, 3x3, same
	Relu1 *ReLU
	Down  *MaxPool2
	Conv2 *Conv2D // F -> F, 3x3, same (on the half-resolution branch)
	Relu2 *ReLU
	Up    *Upsample2
	Conv3 *Conv2D // 2F -> 1, 3x3, same (after concat with the skip)

	skipChannels int
	macs         int64

	// bsc holds the activation scratch of ForwardBatch (batch.go).
	bsc batchScratch

	// obs, when non-nil, receives per-layer convolution timings (the
	// nn-s/conv* stages). Inference pays one pointer check per layer when
	// disabled.
	obs *obs.Collector
}

// SetObserver attaches a metrics collector for per-layer timing; nil
// disables it. Concurrent pipelines set the observer on each worker's
// Clone — the collector itself is safe to share.
func (n *RefineNet) SetObserver(c *obs.Collector) { n.obs = c }

// Observer returns the attached collector (nil when disabled), letting
// wrappers such as segment.Refiner time their own stages against the same
// timeline.
func (n *RefineNet) Observer() *obs.Collector { return n.obs }

// NewRefineNet builds NN-S with the given number of hidden feature maps.
// The paper does not publish filter counts; 8 keeps the network ~3 orders
// of magnitude smaller than NN-L, matching its "much smaller" description.
func NewRefineNet(rng *rand.Rand, features int) *RefineNet {
	return &RefineNet{
		Features:     features,
		Conv1:        NewConv2D(rng, 3, features, 3, 1, 1),
		Relu1:        NewReLU(),
		Down:         NewMaxPool2(),
		Conv2:        NewConv2D(rng, features, features, 3, 1, 1),
		Relu2:        NewReLU(),
		Up:           NewUpsample2(),
		Conv3:        NewConv2D(rng, 2*features, 1, 3, 1, 1),
		skipChannels: features,
	}
}

// Forward runs the network on a [3,H,W] sandwich input and returns [1,H,W]
// logits. H and W must be even (macro-block-aligned frames always are).
// It is the training forward: every layer caches its activations for
// Backward and allocates its output. Inference runs ForwardBatch.
func (n *RefineNet) Forward(x *tensor.Tensor) *tensor.Tensor {
	t := n.obs.Clock()
	c1 := n.Conv1.Forward(x)
	n.obs.Span(obs.StageNNSConv1, -1, obs.KindNone, t)
	skip := n.Relu1.Forward(c1)
	down := n.Down.Forward(skip)
	t = n.obs.Clock()
	c2 := n.Conv2.Forward(down)
	n.obs.Span(obs.StageNNSConv2, -1, obs.KindNone, t)
	mid := n.Relu2.Forward(c2)
	up := n.Up.Forward(mid)
	cat := ConcatChannels(skip, up)
	t = n.obs.Clock()
	out := n.Conv3.Forward(cat)
	n.obs.Span(obs.StageNNSConv3, -1, obs.KindNone, t)
	n.macs = n.Conv1.MACs() + n.Conv2.MACs() + n.Conv3.MACs()
	return out
}

// Backward propagates the loss gradient through the network, accumulating
// parameter gradients.
func (n *RefineNet) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gcat := n.Conv3.Backward(grad)
	gskip, gup := SplitChannels(gcat, n.skipChannels)
	gmid := n.Up.Backward(gup)
	gdown := n.Conv2.Backward(n.Relu2.Backward(gmid))
	gskip2 := n.Down.Backward(gdown)
	gskip.AddInPlace(gskip2)
	return n.Conv1.Backward(n.Relu1.Backward(gskip))
}

// Params implements Layer.
func (n *RefineNet) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	ps = append(ps, n.Conv1.Params()...)
	ps = append(ps, n.Conv2.Params()...)
	ps = append(ps, n.Conv3.Params()...)
	return ps
}

// Grads implements Layer.
func (n *RefineNet) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	gs = append(gs, n.Conv1.Grads()...)
	gs = append(gs, n.Conv2.Grads()...)
	gs = append(gs, n.Conv3.Grads()...)
	return gs
}

// MACs implements Layer.
func (n *RefineNet) MACs() int64 { return n.macs }

// Name implements Layer.
func (n *RefineNet) Name() string { return "refinenet" }

// StaticMACs returns the per-inference multiply-accumulate count for an
// H×W input, used by the NPU timing model.
func (n *RefineNet) StaticMACs(h, w int) int64 {
	return n.Conv1.StaticMACs(h, w) + n.Conv2.StaticMACs(h/2, w/2) + n.Conv3.StaticMACs(h, w)
}

// WeightBytes returns the INT8 parameter footprint.
func (n *RefineNet) WeightBytes() int64 {
	return n.Conv1.WeightBytes() + n.Conv2.WeightBytes() + n.Conv3.WeightBytes()
}

// Clone returns an independent copy sharing no state: both forwards write
// per-instance buffers (activation caches, batch scratch), so concurrent
// inference requires one clone per goroutine.
func (n *RefineNet) Clone() *RefineNet {
	c := NewRefineNet(rand.New(rand.NewSource(0)), n.Features)
	src, dst := n.Params(), c.Params()
	for i := range src {
		copy(dst[i].Data, src[i].Data)
	}
	c.obs = n.obs // the collector is shared and concurrency-safe
	return c
}

var _ Layer = (*RefineNet)(nil)
