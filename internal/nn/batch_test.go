package nn

import (
	"math"
	"math/rand"
	"testing"

	"vrdann/internal/tensor"
)

// randTensor fills a CHW tensor with deterministic values in [-1, 1).
func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

// TestConvForwardBatchBitIdentical pins Conv2D.ForwardBatch to n serial
// Forward calls bitwise, across batch sizes — the invariant
// segment.Refiner.RefineBatch relies on.
func TestConvForwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	conv := NewConv2D(rng, 3, 4, 3, 1, 1)
	serial := NewConv2D(rand.New(rand.NewSource(0)), 3, 4, 3, 1, 1)
	copyParams(t, serial, conv)
	for _, n := range []int{1, 2, 4, 8} {
		x := randTensor(rng, n*3, 8, 6)
		got := conv.ForwardBatch(x, n)
		oHW := got.Shape[1] * got.Shape[2]
		for i := 0; i < n; i++ {
			item := tensor.FromSlice(x.Data[i*3*8*6:(i+1)*3*8*6], 3, 8, 6)
			want := serial.Forward(item)
			for j := range want.Data {
				if got.Data[i*4*oHW+j] != want.Data[j] {
					t.Fatalf("n=%d item %d elem %d: batched %v != serial %v",
						n, i, j, got.Data[i*4*oHW+j], want.Data[j])
				}
			}
		}
	}
}

// copyParams copies src's weights into dst so a separate instance (with its
// own activation caches) can serve as the serial reference.
func copyParams(t *testing.T, dst, src *Conv2D) {
	t.Helper()
	copy(dst.Weight.Data, src.Weight.Data)
	copy(dst.Bias.Data, src.Bias.Data)
}

// TestRefineNetForwardBatchBitIdentical pins RefineNet.ForwardBatch to the
// serial Forward bitwise at batch sizes 1, 2, 4 and 8, including NaN
// inputs (the serial ReLU maps NaN to 0; the in-place batched one must
// too).
func TestRefineNetForwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewRefineNet(rand.New(rand.NewSource(9)), 8)
	ref := net.Clone()
	const h, w = 8, 12
	for _, n := range []int{1, 2, 4, 8} {
		x := randTensor(rng, n*3, h, w)
		x.Data[0] = float32(math.NaN()) // exercise the NaN -> 0 ReLU path
		got := net.ForwardBatch(x, n)
		if got.Shape[0] != n || got.Shape[1] != h || got.Shape[2] != w {
			t.Fatalf("n=%d: output shape %v, want [%d %d %d]", n, got.Shape, n, h, w)
		}
		for i := 0; i < n; i++ {
			item := tensor.FromSlice(x.Data[i*3*h*w:(i+1)*3*h*w], 3, h, w)
			want := ref.Forward(item)
			for j := range want.Data {
				if got.Data[i*h*w+j] != want.Data[j] {
					t.Fatalf("n=%d item %d elem %d: batched %v != serial %v",
						n, i, j, got.Data[i*h*w+j], want.Data[j])
				}
			}
		}
	}
}

// TestForwardBatchScratchReuse runs two differently-sized batches on one
// instance to cover the scratch resize path, then re-checks identity.
func TestForwardBatchScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewRefineNet(rand.New(rand.NewSource(2)), 4)
	ref := net.Clone()
	for _, n := range []int{4, 1, 8, 2} {
		x := randTensor(rng, n*3, 6, 10)
		got := net.ForwardBatch(x, n)
		for i := 0; i < n; i++ {
			item := tensor.FromSlice(x.Data[i*3*6*10:(i+1)*3*6*10], 3, 6, 10)
			want := ref.Forward(item)
			for j := range want.Data {
				if got.Data[i*6*10+j] != want.Data[j] {
					t.Fatalf("n=%d item %d elem %d mismatch after scratch resize", n, i, j)
				}
			}
		}
	}
}

// TestForwardBatchValidation checks shape misuse panics.
func TestForwardBatchValidation(t *testing.T) {
	net := NewRefineNet(rand.New(rand.NewSource(1)), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong channel count")
		}
	}()
	net.ForwardBatch(tensor.New(5, 8, 8), 2)
}
