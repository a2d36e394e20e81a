package nn

import (
	"fmt"
	"math"

	"vrdann/internal/tensor"
)

// BCEWithLogits computes the mean binary-cross-entropy loss between raw
// logits and {0,1} targets, together with the gradient of the loss with
// respect to the logits. The log-sum-exp form is numerically stable for
// large-magnitude logits.
func BCEWithLogits(logits, target *tensor.Tensor) (loss float64, grad *tensor.Tensor) {
	if !logits.SameShape(target) {
		panic(fmt.Sprintf("nn: BCEWithLogits shape mismatch %v vs %v", logits.Shape, target.Shape))
	}
	n := float64(logits.Numel())
	grad = tensor.New(logits.Shape...)
	for i, z := range logits.Data {
		zf := float64(z)
		t := float64(target.Data[i])
		// loss = max(z,0) - z*t + log(1+exp(-|z|))
		loss += math.Max(zf, 0) - zf*t + math.Log1p(math.Exp(-math.Abs(zf)))
		sig := 1 / (1 + math.Exp(-zf))
		grad.Data[i] = float32((sig - t) / n)
	}
	return loss / n, grad
}
