// Package nn is a small, dependency-free neural-network framework with
// forward and backward passes, suitable for training the lightweight
// refinement network (NN-S) described in the VR-DANN paper and for running
// the larger segmentation network (NN-L).
//
// The framework operates on single samples in CHW layout; batching is done
// by the training loop. Every layer reports its multiply-accumulate count so
// the architecture simulator can charge NPU time for real workloads.
package nn

import (
	"vrdann/internal/par"
	"vrdann/internal/tensor"
)

// Layer is a differentiable computation node.
//
// Forward consumes a CHW tensor and returns a CHW tensor. Backward consumes
// the gradient of the loss with respect to the layer output and returns the
// gradient with respect to the layer input; it must be called after Forward
// (layers cache whatever they need). Parameterized layers expose their
// parameters and accumulated gradients via Params and Grads (parallel
// slices).
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*tensor.Tensor
	Grads() []*tensor.Tensor
	// MACs reports the multiply-accumulate operations of the most recent
	// Forward call (0 for element-wise layers where data movement dominates).
	MACs() int64
	// Name identifies the layer type for serialization and debugging.
	Name() string
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	par.For(len(x.Data), par.Grain(len(x.Data), 1, par.MinWorkFloats), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := x.Data[i]; v > 0 {
				out.Data[i] = v
				r.mask[i] = true
			} else {
				r.mask[i] = false
			}
		}
	})
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(grad.Shape...)
	par.For(len(grad.Data), par.Grain(len(grad.Data), 1, par.MinWorkFloats), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if r.mask[i] {
				out.Data[i] = grad.Data[i]
			}
		}
	})
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// MACs implements Layer.
func (r *ReLU) MACs() int64 { return 0 }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }
