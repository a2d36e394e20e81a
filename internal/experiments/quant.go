package experiments

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// QuantRow is one serving run of the quant figure: 8 concurrent streams
// through the serving layer on one execution path, with accuracy
// against ground truth and the residual-skip counters alongside the
// throughput numbers. DeltaF is relative to the float row (positive =
// the path lost accuracy), the quantity the tier's ≤ 0.5-point gate is
// written against.
type QuantRow struct {
	Path          string  `json:"path"` // float | int8 | int8+skip
	Streams       int     `json:"streams"`
	Frames        int     `json:"frames"`
	FPS           float64 `json:"fps"`
	P50MS         float64 `json:"p50Ms"`
	P95MS         float64 `json:"p95Ms"`
	P99MS         float64 `json:"p99Ms"`
	FScore        float64 `json:"fScore"` // mean B-frame F vs ground truth
	DeltaF        float64 `json:"deltaF"` // float-row F minus this row's F
	BlocksSkipped int64   `json:"blocksSkipped"`
	BlocksDirty   int64   `json:"blocksDirty"`
	SkipRate      float64 `json:"skipRate"`      // skipped / (skipped + dirty)
	SkipThreshold int     `json:"skipThreshold"` // residual-energy cutoff (skip path only)
}

// QuantKernels is the micro side of the quant figure: the measured rates
// of the float and int8 batched NN-S forward passes on this machine, and
// the NPU-model efficiency the int8 rate implies (the calibration fed
// back into internal/sim/npu).
type QuantKernels struct {
	Items          int     `json:"items"`          // batch size timed
	OpsPerItem     int64   `json:"opsPerItem"`     // MACs ×2 per batch item
	FloatNSPerItem float64 `json:"floatNsPerItem"` // best-of-reps, per item
	Int8NSPerItem  float64 `json:"int8NsPerItem"`
	Speedup        float64 `json:"speedup"` // float time / int8 time
	Int8OpsPerSec  float64 `json:"int8OpsPerSec"`
	SimEfficiency  float64 `json:"simEfficiency"` // npu.CalibrateEfficiency(Int8OpsPerSec)
}

// QuantReport bundles the quant figure.
type QuantReport struct {
	Kernels QuantKernels `json:"kernels"`
	Rows    []QuantRow   `json:"rows"`
}

// quantCalibInputs builds the static calibration set for the int8 tier:
// sandwich-shaped tensors whose channels carry the {0, 0.5, 1} alphabet
// the deployed network actually sees (binary anchors, 2-bit MV
// reconstruction), at the harness's evaluation geometry.
func quantCalibInputs(w, h int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	var calib []*tensor.Tensor
	for i := 0; i < 4; i++ {
		x := tensor.New(3, h, w)
		for j := range x.Data {
			x.Data[j] = float32(rng.Intn(3)) / 2
		}
		calib = append(calib, x)
	}
	return calib
}

// QuantNNS compiles (once) the trained NN-S to the int8 execution tier.
func (h *Harness) QuantNNS() (*nn.QuantRefineNet, error) {
	nns, err := h.NNS()
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.qnns != nil {
		return h.qnns, nil
	}
	q, err := nn.NewQuantRefineNet(nns, quantCalibInputs(h.Cfg.W, h.Cfg.H, h.Cfg.Seed))
	if err != nil {
		return nil, err
	}
	h.qnns = q
	return q, nil
}

// Quant is the int8-tier figure: kernel-level float-vs-int8 rates plus an
// 8-stream serving comparison of the three execution paths — float, int8,
// and int8 with residual-driven block skipping. Masks on the float and
// int8 paths are compared through ground-truth F-score, not bit-identity:
// quantization is an approximation and its contract is the ≤ 0.5-point
// DeltaF gate.
func (h *Harness) Quant() (*QuantReport, error) {
	kernels, err := h.measureQuantKernels()
	if err != nil {
		return nil, err
	}
	q, err := h.QuantNNS()
	if err != nil {
		return nil, err
	}
	// Pre-encode every stream the rows will serve, so the first row does
	// not pay the whole suite's encoding inside its timed serving loop.
	for _, v := range h.Suite() {
		if _, err := h.StreamFor(v, h.Cfg.Enc); err != nil {
			return nil, err
		}
	}
	rep := &QuantReport{Kernels: kernels}
	paths := []struct {
		name  string
		quant bool
		skip  bool
	}{
		{"float", false, false},
		{"int8", true, false},
		{"int8+skip", true, true},
	}
	for _, p := range paths {
		row, err := h.quantServeRow(p.name, 8, q, p.quant, p.skip)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	for i := range rep.Rows {
		rep.Rows[i].DeltaF = rep.Rows[0].FScore - rep.Rows[i].FScore
	}
	return rep, nil
}

// measureQuantKernels times the float and int8 batched NN-S forward
// passes on identical synthetic batches (best of a few repetitions, after
// a warm-up that also primes the scratch buffers) and derives the
// throughput numbers the simulator calibration consumes.
func (h *Harness) measureQuantKernels() (QuantKernels, error) {
	nns, err := h.NNS()
	if err != nil {
		return QuantKernels{}, err
	}
	q, err := h.QuantNNS()
	if err != nil {
		return QuantKernels{}, err
	}
	const items = 8
	rng := rand.New(rand.NewSource(h.Cfg.Seed + 1))
	x := tensor.New(items*3, h.Cfg.H, h.Cfg.W)
	for j := range x.Data {
		x.Data[j] = float32(rng.Intn(3)) / 2
	}
	fnet := nns.Clone()
	qnet := q.Clone()
	fnet.ForwardBatch(x, items)
	qnet.ForwardBatchQuant(x, items)
	best := func(f func()) float64 {
		b := 0.0
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			f()
			if d := float64(time.Since(t0)); r == 0 || d < b {
				b = d
			}
		}
		return b
	}
	floatNS := best(func() { fnet.ForwardBatch(x, items) })
	int8NS := best(func() { qnet.ForwardBatchQuant(x, items) })
	ops := 2 * nns.StaticMACs(h.Cfg.H, h.Cfg.W)
	k := QuantKernels{
		Items:          items,
		OpsPerItem:     ops,
		FloatNSPerItem: floatNS / items,
		Int8NSPerItem:  int8NS / items,
	}
	if int8NS > 0 {
		k.Speedup = floatNS / int8NS
		k.Int8OpsPerSec = float64(items*ops) / (int8NS * 1e-9)
	}
	k.SimEfficiency = h.Cfg.Sim.NPU.CalibrateEfficiency(k.Int8OpsPerSec)
	return k, nil
}

// quantServeRow runs one 8-stream serving leg on the chosen path and
// scores its B-frame masks against each stream's ground truth.
func (h *Harness) quantServeRow(path string, streams int, q *nn.QuantRefineNet, quant, skip bool) (QuantRow, error) {
	suite := h.Suite()
	nns, err := h.NNS()
	if err != nil {
		return QuantRow{}, err
	}
	videoFor := func(i int) *video.Video { return suite[i%len(suite)] }
	opened := 0
	col := obs.New()
	cfg := serve.Config{
		MaxSessions: streams,
		NNS:         nns,
		Obs:         col,
		NewSegmenter: func(id string) segment.Segmenter {
			v := videoFor(opened)
			opened++
			return h.nnlFor(v, "NN-L(FAVOS)", h.Cfg.FAVOSNoise, 3)
		},
	}
	if quant {
		cfg.QuantNNS = q
	}
	if skip {
		cfg.SkipResidual = true
		cfg.SkipThreshold = h.Cfg.SkipThreshold
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return QuantRow{}, err
	}
	var fMu sync.Mutex
	var fSum float64
	var fN int
	gen := &serve.LoadGen{
		Server:  srv,
		Streams: streams,
		Chunks: func(i int) [][]byte {
			st, err := h.StreamFor(videoFor(i), h.Cfg.Enc)
			if err != nil {
				return nil
			}
			return [][]byte{st.Data, st.Data}
		},
		OnResult: func(i int, r serve.FrameResult) {
			if r.Mask == nil || r.Type != codec.BFrame {
				return
			}
			v := videoFor(i)
			f := segment.PixelFScore(r.Mask, v.Masks[r.Display%len(v.Masks)])
			fMu.Lock()
			fSum += f
			fN++
			fMu.Unlock()
		},
	}
	rep, err := gen.Run(context.Background())
	if cerr := srv.Close(context.Background()); err == nil {
		err = cerr
	}
	if err != nil {
		return QuantRow{}, err
	}
	row := QuantRow{
		Path:    path,
		Streams: streams,
		Frames:  rep.Frames,
		FPS:     rep.FPS,
		P50MS:   ms(rep.P50),
		P95MS:   ms(rep.P95),
		P99MS:   ms(rep.P99),
	}
	if fN > 0 {
		row.FScore = fSum / float64(fN)
	}
	snap := col.Snapshot()
	row.BlocksSkipped = snap.Counters[obs.CounterQuantBlocksSkipped.String()]
	row.BlocksDirty = snap.Counters[obs.CounterQuantBlocksDirty.String()]
	if t := row.BlocksSkipped + row.BlocksDirty; t > 0 {
		row.SkipRate = float64(row.BlocksSkipped) / float64(t)
	}
	if skip {
		row.SkipThreshold = h.Cfg.SkipThreshold
	}
	return row, nil
}
