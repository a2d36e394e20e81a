package nn

import (
	"math"
	"math/rand"
	"testing"

	"vrdann/internal/tensor"
)

func TestQuantizeRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 2, 4, 4)
	s := ScaleFor(x)
	back := Dequantize(Quantize(x, s), s, 4, 4)
	for i := range x.Data {
		if diff := math.Abs(float64(x.Data[i] - back.Data[i])); diff > float64(s)/2+1e-6 {
			t.Fatalf("element %d error %v exceeds half a quantization step", i, diff)
		}
	}
}

func TestScaleForZeroTensor(t *testing.T) {
	x := tensor.New(3, 3)
	if ScaleFor(x) != 1 {
		t.Fatal("zero tensor must get scale 1")
	}
}

func TestQuantizeClampsOutliers(t *testing.T) {
	x := tensor.FromSlice([]float32{1000, -1000}, 2)
	q := Quantize(x, 1)
	if q[0] != 127 || q[1] != -127 {
		t.Fatalf("clamping failed: %v", q)
	}
}
