package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"vrdann/internal/tensor"
)

// binaryTarget draws a random {0,1} target of the given shape, the label
// alphabet BCEWithLogits is written for.
func binaryTarget(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.Randn(rng, 1, shape...)
	t.ApplyInPlace(func(v float32) float32 {
		if v > 0 {
			return 1
		}
		return 0
	})
	return t
}

// numericGrad estimates dLoss/dParam[i] by central differences, where loss
// is BCEWithLogits(net(x), target).
func numericGrad(net Layer, x, target *tensor.Tensor, p *tensor.Tensor, i int) float64 {
	const eps = 1e-3
	orig := p.Data[i]
	p.Data[i] = orig + eps
	lp, _ := BCEWithLogits(net.Forward(x), target)
	p.Data[i] = orig - eps
	lm, _ := BCEWithLogits(net.Forward(x), target)
	p.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

func checkGradients(t *testing.T, net Layer, x, target *tensor.Tensor, samples int, tol float64) {
	t.Helper()
	out := net.Forward(x)
	_, grad := BCEWithLogits(out, target)
	net.Backward(grad)
	params, grads := net.Params(), net.Grads()
	rng := rand.New(rand.NewSource(7))
	for pi, p := range params {
		for s := 0; s < samples; s++ {
			i := rng.Intn(p.Numel())
			want := numericGrad(net, x, target, p, i)
			got := float64(grads[pi].Data[i])
			if math.Abs(want-got) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %d elem %d: analytic grad %v, numeric %v", pi, i, got, want)
			}
		}
	}
}

func TestConv2DForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, 1, 1, 3, 1, 1)
	// Identity kernel: center tap 1, rest 0, bias 0.
	c.Weight.Fill(0)
	c.Weight.Set(1, 0, 0, 1, 1)
	c.Bias.Fill(0)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	y := c.Forward(x)
	if !tensor.AllClose(x, y, 0) {
		t.Fatalf("identity conv output %v", y.Data)
	}
	if c.MACs() != 9*4 {
		t.Fatalf("MACs = %d, want 36", c.MACs())
	}
}

func TestConv2DStride(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, 1, 2, 3, 2, 1)
	x := tensor.Randn(rng, 1, 1, 8, 8)
	y := c.Forward(x)
	if y.Shape[0] != 2 || y.Shape[1] != 4 || y.Shape[2] != 4 {
		t.Fatalf("stride-2 output shape %v, want [2 4 4]", y.Shape)
	}
}

func TestConv2DGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewSequential(NewConv2D(rng, 2, 3, 3, 1, 1))
	x := tensor.Randn(rng, 1, 2, 5, 5)
	target := binaryTarget(rng, 3, 5, 5)
	checkGradients(t, net, x, target, 10, 1e-2)
}

func TestConv2DInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv := NewConv2D(rng, 1, 2, 3, 1, 1)
	x := tensor.Randn(rng, 1, 1, 4, 4)
	target := binaryTarget(rng, 2, 4, 4)
	out := conv.Forward(x)
	_, g := BCEWithLogits(out, target)
	gin := conv.Backward(g)
	// Numeric check on a few input elements.
	const eps = 1e-3
	for _, i := range []int{0, 5, 15} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp, _ := BCEWithLogits(conv.Forward(x), target)
		x.Data[i] = orig - eps
		lm, _ := BCEWithLogits(conv.Forward(x), target)
		x.Data[i] = orig
		want := (lp - lm) / (2 * eps)
		if math.Abs(want-float64(gin.Data[i])) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d] = %v, numeric %v", i, gin.Data[i], want)
		}
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-1, 2, 0, 3}, 1, 2, 2)
	y := r.Forward(x)
	if y.Data[0] != 0 || y.Data[1] != 2 || y.Data[3] != 3 {
		t.Fatalf("relu forward %v", y.Data)
	}
	g := r.Backward(tensor.Full(1, 1, 2, 2))
	if g.Data[0] != 0 || g.Data[1] != 1 || g.Data[2] != 0 {
		t.Fatalf("relu backward %v", g.Data)
	}
}

func TestMaxPool2ForwardBackward(t *testing.T) {
	p := NewMaxPool2()
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		1, 1, 0, 0,
		1, 9, 0, 2,
	}, 1, 4, 4)
	y := p.Forward(x)
	want := []float32{4, 8, 9, 2}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
	g := p.Backward(tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 2, 2))
	// Gradient routes to the argmax positions only.
	if g.Data[5] != 1 || g.Data[7] != 1 || g.Data[13] != 1 || g.Data[15] != 1 {
		t.Fatalf("pool backward %v", g.Data)
	}
	var s float32
	for _, v := range g.Data {
		s += v
	}
	if s != 4 {
		t.Fatalf("pool backward mass %v, want 4", s)
	}
}

func TestUpsample2RoundTrip(t *testing.T) {
	u := NewUpsample2()
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	y := u.Forward(x)
	if y.Shape[1] != 4 || y.Shape[2] != 4 {
		t.Fatalf("upsample shape %v", y.Shape)
	}
	if y.At(0, 0, 0) != 1 || y.At(0, 0, 1) != 1 || y.At(0, 3, 3) != 4 {
		t.Fatalf("upsample values wrong: %v", y.Data)
	}
	g := u.Backward(tensor.Full(1, 1, 4, 4))
	for _, v := range g.Data {
		if v != 4 {
			t.Fatalf("upsample backward = %v, want 4", v)
		}
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	a := tensor.Full(1, 2, 3, 3)
	b := tensor.Full(2, 1, 3, 3)
	c := ConcatChannels(a, b)
	if c.Shape[0] != 3 {
		t.Fatalf("concat channels %v", c.Shape)
	}
	ga, gb := SplitChannels(c, 2)
	if !tensor.AllClose(ga, a, 0) || !tensor.AllClose(gb, b, 0) {
		t.Fatal("split does not invert concat")
	}
}

func TestRefineNetShapesAndGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewRefineNet(rng, 4)
	x := tensor.Randn(rng, 1, 3, 8, 8)
	y := net.Forward(x)
	if y.Shape[0] != 1 || y.Shape[1] != 8 || y.Shape[2] != 8 {
		t.Fatalf("refinenet output shape %v", y.Shape)
	}
	target := binaryTarget(rng, 1, 8, 8)
	checkGradients(t, net, x, target, 6, 2e-2)
}

func TestRefineNetLearnsIdentityOfMiddleChannel(t *testing.T) {
	// The essential job of NN-S: reproduce (a denoised version of) the middle
	// channel. Train briefly on random binary masks and check the loss drops.
	rng := rand.New(rand.NewSource(6))
	net := NewRefineNet(rng, 4)
	opt := NewAdam(0.01)
	sample := func() (*tensor.Tensor, *tensor.Tensor) {
		x := tensor.New(3, 8, 8)
		tgt := tensor.New(1, 8, 8)
		for i := 0; i < 64; i++ {
			v := float32(rng.Intn(2))
			x.Data[64+i] = v // middle channel
			x.Data[i] = v
			x.Data[128+i] = v
			tgt.Data[i] = v
		}
		return x, tgt
	}
	var first, last float64
	for step := 0; step < 60; step++ {
		x, tgt := sample()
		out := net.Forward(x)
		loss, grad := BCEWithLogits(out, tgt)
		if step == 0 {
			first = loss
		}
		last = loss
		net.Backward(grad)
		opt.Step(net.Params(), net.Grads())
	}
	if last > first*0.6 {
		t.Fatalf("training did not reduce loss: first %v last %v", first, last)
	}
}

func TestFCNShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewFCN(rng, 3, 8)
	x := tensor.Randn(rng, 1, 3, 16, 16)
	y := net.Forward(x)
	if y.Shape[0] != 1 || y.Shape[1] != 16 || y.Shape[2] != 16 {
		t.Fatalf("fcn output shape %v", y.Shape)
	}
	if net.StaticMACs(16, 16) != net.MACs() {
		t.Fatalf("StaticMACs %d != runtime MACs %d", net.StaticMACs(16, 16), net.MACs())
	}
}

func TestRefineNetStaticMACsMatchesRuntime(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewRefineNet(rng, 4)
	x := tensor.Randn(rng, 1, 3, 16, 16)
	net.Forward(x)
	if net.StaticMACs(16, 16) != net.MACs() {
		t.Fatalf("StaticMACs %d != runtime MACs %d", net.StaticMACs(16, 16), net.MACs())
	}
}

func TestBCEWithLogitsStableAndCorrect(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 1000, -1000}, 3)
	target := tensor.FromSlice([]float32{1, 1, 0}, 3)
	loss, grad := BCEWithLogits(logits, target)
	want := math.Log(2) / 3 // only the first element contributes
	if math.Abs(loss-want) > 1e-6 {
		t.Fatalf("loss = %v, want %v", loss, want)
	}
	if math.IsNaN(float64(grad.Data[1])) || math.IsNaN(float64(grad.Data[2])) {
		t.Fatal("gradient NaN for extreme logits")
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	// Minimize (w-3)^2 with SGD+momentum.
	w := tensor.FromSlice([]float32{0}, 1)
	g := tensor.New(1)
	opt := NewSGD(0.1, 0.9)
	for i := 0; i < 100; i++ {
		g.Data[0] = 2 * (w.Data[0] - 3)
		opt.Step([]*tensor.Tensor{w}, []*tensor.Tensor{g})
	}
	if math.Abs(float64(w.Data[0])-3) > 0.05 {
		t.Fatalf("SGD converged to %v, want 3", w.Data[0])
	}
	if g.Data[0] != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestAdamConverges(t *testing.T) {
	w := tensor.FromSlice([]float32{-5}, 1)
	g := tensor.New(1)
	opt := NewAdam(0.2)
	for i := 0; i < 200; i++ {
		g.Data[0] = 2 * (w.Data[0] - 3)
		opt.Step([]*tensor.Tensor{w}, []*tensor.Tensor{g})
	}
	if math.Abs(float64(w.Data[0])-3) > 0.1 {
		t.Fatalf("Adam converged to %v, want 3", w.Data[0])
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewRefineNet(rng, 4)
	b := NewRefineNet(rand.New(rand.NewSource(10)), 4)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, b); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !tensor.AllClose(pa[i], pb[i], 0) {
			t.Fatalf("param %d differs after round trip", i)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewRefineNet(rng, 4)
	b := NewRefineNet(rng, 8)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, b); err == nil {
		t.Fatal("expected error for mismatched architecture")
	}
}

func TestPredictMaskThreshold(t *testing.T) {
	// A fixed "network" that returns its input.
	rng := rand.New(rand.NewSource(12))
	id := NewConv2D(rng, 1, 1, 1, 1, 0)
	id.Weight.Fill(1)
	id.Bias.Fill(0)
	x := tensor.FromSlice([]float32{-2, 0.5, -0.1, 3}, 1, 2, 2)
	m := PredictMask(NewSequential(id), x)
	want := []float32{0, 1, 0, 1}
	for i, wv := range want {
		if m.Data[i] != wv {
			t.Fatalf("mask[%d] = %v, want %v", i, m.Data[i], wv)
		}
	}
}
