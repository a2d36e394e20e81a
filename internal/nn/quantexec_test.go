package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vrdann/internal/tensor"
)

// TestQuantizeEdgeCases pins the hardened round-trip behaviour on the
// inputs that used to flow through math.Round unchecked.
func TestQuantizeEdgeCases(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		in   []float32
		want []int8 // expected under ScaleFor's own scale
	}{
		{"all-zero", []float32{0, 0, 0}, []int8{0, 0, 0}},
		{"saturating", []float32{1, -1, 0.5}, []int8{127, -127, 64}},
		{"nan-maps-to-zero", []float32{nan, 1, -1}, []int8{0, 127, -127}},
		{"all-nan", []float32{nan, nan}, []int8{0, 0}},
		{"pos-inf-saturates", []float32{inf, 0}, []int8{127, 0}},
		{"neg-inf-saturates", []float32{-inf, 0}, []int8{-127, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := tensor.FromSlice(c.in, len(c.in))
			s := ScaleFor(x)
			if math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) || s <= 0 {
				t.Fatalf("ScaleFor produced unusable scale %v", s)
			}
			got := Quantize(x, s)
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("element %d: got %d, want %d (scale %v)", i, got[i], c.want[i], s)
				}
			}
		})
	}
}

// TestScaleForIgnoresNaN checks a NaN element does not poison the range of
// its finite neighbours.
func TestScaleForIgnoresNaN(t *testing.T) {
	x := tensor.FromSlice([]float32{float32(math.NaN()), 2, -4}, 3)
	if s := ScaleFor(x); float32(s) != 4.0/127 {
		t.Fatalf("scale %v, want %v", s, 4.0/127)
	}
}

// trainTinyRefineNet trains a small NN-S on a copy-the-middle-channel task
// and returns it with a calibration set and a sampler.
func trainTinyRefineNet(t *testing.T, seed int64, h, w int) (*RefineNet, []*tensor.Tensor, func() *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := NewRefineNet(rng, 4)
	opt := NewAdam(0.01)
	sample := func() (*tensor.Tensor, *tensor.Tensor) {
		x := tensor.New(3, h, w)
		tgt := tensor.New(1, h, w)
		hw := h * w
		for i := 0; i < hw; i++ {
			v := float32(rng.Intn(2))
			x.Data[i], x.Data[hw+i], x.Data[2*hw+i] = v, v, v
			tgt.Data[i] = v
		}
		return x, tgt
	}
	for step := 0; step < 80; step++ {
		x, tgt := sample()
		out := net.Forward(x)
		_, grad := BCEWithLogits(out, tgt)
		net.Backward(grad)
		opt.Step(net.Params(), net.Grads())
	}
	var calib []*tensor.Tensor
	for i := 0; i < 4; i++ {
		x, _ := sample()
		calib = append(calib, x)
	}
	return net, calib, func() *tensor.Tensor { x, _ := sample(); return x }
}

// TestQuantRefineNetCloseToFloat checks the real-int8 execution path makes
// the same decisions as float inference on nearly every pixel — the same
// gate the fake-quantized simulation passes.
func TestQuantRefineNetCloseToFloat(t *testing.T) {
	net, calib, sample := trainTinyRefineNet(t, 3, 8, 8)
	ref := net.Clone() // float reference, untouched by construction
	q, err := NewQuantRefineNet(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for trial := 0; trial < 10; trial++ {
		x := sample()
		fl := ref.Forward(x)
		qu := q.ForwardQuant(x)
		for i := range fl.Data {
			total++
			if (fl.Data[i] > 0) == (qu.Data[i] > 0) {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Fatalf("int8 decision agreement %.3f, want >= 0.95", frac)
	}
}

// TestQuantRefineNetLeavesSourceUntouched checks construction does not
// fake-quantize the float network in place (it is the differential
// reference).
func TestQuantRefineNetLeavesSourceUntouched(t *testing.T) {
	net, calib, _ := trainTinyRefineNet(t, 5, 8, 8)
	before := make([][]float32, 0)
	for _, p := range net.Params() {
		before = append(before, append([]float32(nil), p.Data...))
	}
	if _, err := NewQuantRefineNet(net, calib); err != nil {
		t.Fatal(err)
	}
	for pi, p := range net.Params() {
		for i := range p.Data {
			if p.Data[i] != before[pi][i] {
				t.Fatalf("param %d elem %d mutated by quantization", pi, i)
			}
		}
	}
}

// TestForwardBatchQuantMatchesSerial checks the fused batched int8 forward
// is element-identical to per-item int8 forwards — the same contract the
// float batched path keeps, here over the integer datapath where fusion
// cannot even introduce rounding differences.
func TestForwardBatchQuantMatchesSerial(t *testing.T) {
	net, calib, sample := trainTinyRefineNet(t, 7, 8, 8)
	q, err := NewQuantRefineNet(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	qs := q.Clone() // serial reference instance (scratch is per-instance)
	const n = 3
	h, w := 8, 8
	wide := tensor.New(n*3, h, w)
	items := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		items[i] = sample()
		copy(wide.Data[i*3*h*w:(i+1)*3*h*w], items[i].Data)
	}
	batched := q.ForwardBatchQuant(wide, n)
	for i := 0; i < n; i++ {
		single := qs.ForwardQuant(items[i])
		for p := 0; p < h*w; p++ {
			if batched.Data[i*h*w+p] != single.Data[p] {
				t.Fatalf("item %d pixel %d: batched %g, serial %g", i, p, batched.Data[i*h*w+p], single.Data[p])
			}
		}
	}
}

// TestQuantRefineNetCloneIndependent checks clones share weights but not
// scratch: concurrent-style interleaved use must not cross-contaminate.
func TestQuantRefineNetCloneIndependent(t *testing.T) {
	net, calib, sample := trainTinyRefineNet(t, 9, 8, 8)
	q, err := NewQuantRefineNet(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	c := q.Clone()
	x1, x2 := sample(), sample()
	want1 := append([]float32(nil), q.ForwardQuant(x1).Data...)
	// Run the clone on different data; the original's next run must be
	// unaffected.
	c.ForwardQuant(x2)
	got1 := q.ForwardQuant(x1)
	for i := range want1 {
		if got1.Data[i] != want1[i] {
			t.Fatalf("pixel %d changed after clone activity: %g vs %g", i, got1.Data[i], want1[i])
		}
	}
}

func TestQuantRefineNetRequiresCalibration(t *testing.T) {
	if _, err := NewQuantRefineNet(NewRefineNet(rand.New(rand.NewSource(4)), 4), nil); err == nil {
		t.Fatal("expected calibration error")
	}
}

// TestForwardBatchQuantZeroAlloc asserts the batched int8 NN-S path
// allocates nothing in steady state — every intermediate lives in
// network-owned reused scratch. Pinned to one worker because the par.For
// fork-join itself allocates its helper goroutines; the guard is about the
// kernel path's buffers, not the scheduler.
func TestForwardBatchQuantZeroAlloc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	net, calib, sample := trainTinyRefineNet(t, 13, 16, 16)
	q, err := NewQuantRefineNet(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	h, w := 16, 16
	wide := tensor.New(n*3, h, w)
	for i := 0; i < n; i++ {
		copy(wide.Data[i*3*h*w:(i+1)*3*h*w], sample().Data)
	}
	q.ForwardBatchQuant(wide, n) // warm the scratch
	allocs := testing.AllocsPerRun(10, func() {
		q.ForwardBatchQuant(wide, n)
	})
	if allocs > 0 {
		t.Fatalf("steady-state batched int8 forward allocates %.1f objects/run, want 0", allocs)
	}
}

// Benchmarks: float vs int8 NN-S forward at serving geometry.

func benchNet(b *testing.B) (*RefineNet, *QuantRefineNet, *tensor.Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	net := NewRefineNet(rng, 8)
	const n, h, w = 8, 96, 64
	wide := tensor.New(n*3, h, w)
	for i := range wide.Data {
		wide.Data[i] = float32(rng.Intn(2))
	}
	calib := []*tensor.Tensor{tensor.FromSlice(wide.Data[:3*h*w], 3, h, w)}
	q, err := NewQuantRefineNet(net, calib)
	if err != nil {
		b.Fatal(err)
	}
	return net, q, wide
}

func BenchmarkRefineNetForwardBatchFloat(b *testing.B) {
	net, _, wide := benchNet(b)
	const n = 8
	net.ForwardBatch(wide, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(wide, n)
	}
}

func BenchmarkRefineNetForwardBatchQuant(b *testing.B) {
	_, q, wide := benchNet(b)
	const n = 8
	q.ForwardBatchQuant(wide, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ForwardBatchQuant(wide, n)
	}
}
