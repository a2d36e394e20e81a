package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vrdann/internal/adapt"
	"vrdann/internal/contentcache"
	"vrdann/internal/nn"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// convShape is one 3×3 same-padded convolution the deployed networks
// issue at 96×64: its im2col lowering reads [inC, h, w] and writes
// [inC·9, h·w], and its GEMM multiplies [outC, inC·9] by that.
type convShape struct {
	name            string
	inC, outC, h, w int
	int8            bool // also issued on the int8 tier (NN-S only)
}

var convShapes = []convShape{
	{"nns.conv1", 3, nnsFeatures, frameH, frameW, true},
	{"nns.conv2", nnsFeatures, nnsFeatures, frameH / 2, frameW / 2, true},
	{"nns.conv3", 2 * nnsFeatures, 1, frameH, frameW, true},
	{"nnl.conv1", 1, nnlWidth, frameH, frameW, false},
	{"nnl.conv2", nnlWidth, 2 * nnlWidth, frameH / 2, frameW / 2, false},
	{"nnl.conv3", 2 * nnlWidth, 2 * nnlWidth, frameH / 4, frameW / 4, false},
	{"nnl.conv4", 2 * nnlWidth, nnlWidth, frameH / 2, frameW / 2, false},
	{"nnl.conv5", nnlWidth, 1, frameH, frameW, false},
}

// timeOp calls f repeatedly for about budget (at least three times) and
// returns the median seconds per call and the mean heap allocations per
// call.
func timeOp(budget time.Duration, f func()) (sec, allocs float64) {
	f() // warm: first-call buffer growth is set-up, not steady state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var took []float64
	for start := time.Now(); len(took) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		f()
		took = append(took, time.Since(t0).Seconds())
	}
	runtime.ReadMemStats(&m1)
	return median(took), float64(m1.Mallocs-m0.Mallocs) / float64(len(took))
}

// kernelMetrics times tensor.MatMulInto, MatMulI8Into and Im2ColInto by
// direct calls at convShapes. Rates are one frame's worth of calls: the
// operations (2 per multiply-accumulate) and bytes (patch matrix written
// plus input read, 4 bytes each) are computed from the shapes, not
// counted by hardware. Per-shape rows go to rows.
func kernelMetrics(budget time.Duration, rows map[string]float64) map[string]float64 {
	rng := rand.New(rand.NewSource(1))
	per := budget / time.Duration(3*len(convShapes))
	var f32Ops, f32Sec, i8Ops, i8Sec, colBytes, colSec, allocs float64
	for _, s := range convShapes {
		k, n := s.inC*9, s.h*s.w
		x := tensor.Randn(rng, 1, s.inC, s.h, s.w)
		cols := tensor.New(k, n)
		wgt := tensor.Randn(rng, 1, s.outC, k)
		dst := tensor.New(s.outC, n)
		ops := 2 * float64(s.outC) * float64(k) * float64(n)
		bytes := 4 * float64(k*n+s.inC*n)

		sec, a := timeOp(per, func() { tensor.Im2ColInto(cols, x, 3, 3, 1, 1) })
		colBytes, colSec, allocs = colBytes+bytes, colSec+sec, allocs+a
		rows["tensor.im2col_gbs."+s.name] = bytes / sec / 1e9

		sec, a = timeOp(per, func() { tensor.MatMulInto(dst, wgt, cols) })
		f32Ops, f32Sec, allocs = f32Ops+ops, f32Sec+sec, allocs+a
		rows["tensor.gemm_gops."+s.name] = ops / sec / 1e9

		if !s.int8 {
			continue
		}
		w8, c8, acc := tensor.NewI8(s.outC, k), tensor.NewI8(k, n), tensor.NewI32(s.outC, n)
		for i := range w8.Data {
			w8.Data[i] = int8(rng.Intn(255) - 127)
		}
		for i := range c8.Data {
			c8.Data[i] = int8(rng.Intn(255) - 127)
		}
		sec, a = timeOp(per, func() { tensor.MatMulI8Into(acc, w8, c8) })
		i8Ops, i8Sec, allocs = i8Ops+ops, i8Sec+sec, allocs+a
		rows["tensor.gemm_i8_gops."+s.name] = ops / sec / 1e9
	}
	return map[string]float64{
		"tensor.gemm_gops":     f32Ops / f32Sec / 1e9,
		"tensor.gemm_i8_gops":  i8Ops / i8Sec / 1e9,
		"tensor.im2col_gbs":    colBytes / colSec / 1e9,
		"tensor.allocs_per_op": allocs / float64(2*len(convShapes)+3),
	}
}

// modelMetrics times one forward pass of each deployed network by direct
// calls, and each of their convolutions as a row.
func modelMetrics(m *models, budget time.Duration, rows map[string]float64) map[string]float64 {
	sandwich := adapt.SandwichCalibration(frameW, frameH, 1, 2)[0]
	frame := tensor.Randn(rand.New(rand.NewSource(3)), 0.3, 1, frameH, frameW)
	nns, quant, fcn := m.nns.Clone(), m.quant.Clone(), m.cloneNNL()
	out := make(map[string]float64)
	sec, _ := timeOp(budget/4, func() { nns.Forward(sandwich) })
	out["nn.nns_f32_ms"] = sec * 1e3
	sec, _ = timeOp(budget/4, func() { quant.ForwardQuant(sandwich) })
	out["nn.nns_i8_ms"] = sec * 1e3
	sec, _ = timeOp(budget/4, func() { fcn.Forward(frame) })
	out["nn.nnl_ms"] = sec * 1e3

	// Per-convolution rows: walk each network once per repetition, timing
	// every Conv2D.Forward on the activation the layer before produced.
	per := budget / 8
	took := make(map[int][]float64)
	for start := time.Now(); len(took[0]) < 3 || time.Since(start) < per; {
		a, c := frame, 0
		for _, l := range fcn.Layers {
			t0 := time.Now()
			a = l.Forward(a)
			if _, ok := l.(*nn.Conv2D); ok {
				took[c] = append(took[c], time.Since(t0).Seconds())
				c++
			}
		}
	}
	for c, v := range took {
		rows[fmt.Sprintf("nn.nnl.conv%d_ms", c+1)] = median(v) * 1e3
	}
	// NN-S is not a Sequential: its three convolutions run on the shapes
	// the network feeds them.
	half := tensor.New(nnsFeatures, frameH/2, frameW/2)
	cat := tensor.New(2*nnsFeatures, frameH, frameW)
	for i, c := range []struct {
		conv *nn.Conv2D
		x    *tensor.Tensor
	}{{nns.Conv1, sandwich}, {nns.Conv2, half}, {nns.Conv3, cat}} {
		sec, _ := timeOp(per/3, func() { c.conv.Forward(c.x) })
		rows[fmt.Sprintf("nn.nns_f32.conv%d_ms", i+1)] = sec * 1e3
	}
	return out
}

// cacheMetrics times contentcache directly: Acquire on a resident key (the
// read use) and Acquire+Commit of a fresh key (the write use).
func cacheMetrics(budget time.Duration) map[string]float64 {
	c := contentcache.New(contentcache.Config{MaxBytes: 64 << 20})
	mask := video.NewMask(frameW, frameH)
	const resident = 1024
	for i := 0; i < resident; i++ {
		_, f, _ := c.Acquire(contentcache.Key{Content: 1, Display: i, Model: 1})
		f.Commit(mask)
	}
	const batch = 1000 // per timed call, so the clock reads are amortised
	i := 0
	hit, _ := timeOp(budget/2, func() {
		for n := 0; n < batch; n++ {
			c.Acquire(contentcache.Key{Content: 1, Display: i % resident, Model: 1})
			i++
		}
	})
	fresh := uint64(2)
	fill, _ := timeOp(budget/2, func() {
		for n := 0; n < batch; n++ {
			_, f, _ := c.Acquire(contentcache.Key{Content: fresh, Display: n, Model: 1})
			f.Commit(mask)
		}
		fresh++
	})
	return map[string]float64{
		"contentcache.acquire_us": hit / batch * 1e6,
		"contentcache.fill_us":    fill / batch * 1e6,
	}
}
