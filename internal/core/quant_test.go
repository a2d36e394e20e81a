package core

import (
	"context"
	"math/rand"
	"testing"

	"vrdann/internal/codec"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// quantTestNet builds an untrained-but-deterministic NN-S and its int8
// compilation, calibrated on random sandwich-shaped inputs.
func quantTestNet(t *testing.T, seed int64) (*nn.RefineNet, *nn.QuantRefineNet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewRefineNet(rng, 4)
	var calib []*tensor.Tensor
	for i := 0; i < 3; i++ {
		x := tensor.New(3, 48, 64)
		for j := range x.Data {
			x.Data[j] = float32(rng.Intn(3)) / 2
		}
		calib = append(calib, x)
	}
	q, err := nn.NewQuantRefineNet(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	return net, q
}

// TestResidualSkipCountsAndRefinesLess checks the skip actually elides NN-S
// work on a low-motion stream and the counters record it.
func TestResidualSkipCountsAndRefinesLess(t *testing.T) {
	v := makeTestVideo(24, 0.4) // slow motion: many bit-exact blocks
	stream := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(3)), 4)
	base := New(segment.NewOracle("oracle", v.Masks, 0, 0, 1), nns)
	full, err := base.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.New()
	skip := New(segment.NewOracle("oracle", v.Masks, 0, 0, 1), nns, WithObserver(c))
	skip.SkipResidual = true
	skipped, err := skip.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Snapshot()
	sk := rep.Counters[obs.CounterQuantBlocksSkipped.String()]
	dt := rep.Counters[obs.CounterQuantBlocksDirty.String()]
	if sk == 0 {
		t.Fatal("slow-motion stream skipped zero blocks; residual gating is dead")
	}
	if dt == 0 {
		t.Fatal("no dirty blocks at all — suspicious for a moving object")
	}
	if skipped.Stats.NNSRuns > full.Stats.NNSRuns {
		t.Fatalf("skip ran MORE NN-S (%d) than full (%d)", skipped.Stats.NNSRuns, full.Stats.NNSRuns)
	}
	if len(skipped.Masks) != len(full.Masks) {
		t.Fatalf("mask count %d vs %d", len(skipped.Masks), len(full.Masks))
	}
}

// TestQuantPipelineEndToEnd runs the full pipeline on the int8 tier (with
// and without residual skip) and gates the F-score delta against the float
// path at 0.5 points — the tier's accuracy contract.
func TestQuantPipelineEndToEnd(t *testing.T) {
	v := makeTestVideo(24, 1.5)
	stream := encodeTestVideo(t, v)

	// Train a small NN-S on this scene so the F-scores are meaningful.
	nns, err := TrainNNS([]*video.Video{v}, codec.DefaultConfig(), TrainConfig{Features: 4, Epochs: 2, LR: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var calib []*tensor.Tensor
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		x := tensor.New(3, 48, 64)
		for j := range x.Data {
			x.Data[j] = float32(rng.Intn(3)) / 2
		}
		calib = append(calib, x)
	}
	q, err := nn.NewQuantRefineNet(nns, calib)
	if err != nil {
		t.Fatal(err)
	}

	fscore := func(res *Result) float64 {
		s := 0.0
		n := 0
		for d, m := range res.Masks {
			if res.Decode.Types[d] != codec.BFrame {
				continue
			}
			s += segment.PixelFScore(m, v.Masks[d])
			n++
		}
		return s / float64(n)
	}

	oracle := segment.NewOracle("oracle", v.Masks, 0, 0, 1)
	floatRes, err := New(oracle, nns).RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	fFloat := fscore(floatRes)

	qp := New(oracle, nns)
	qp.Quant = q
	quantRes, err := qp.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	fQuant := fscore(quantRes)

	qps := New(oracle, nns)
	qps.Quant = q
	qps.SkipResidual = true
	skipRes, err := qps.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	fSkip := fscore(skipRes)

	const gate = 0.005 // 0.5 F-score points
	if fFloat-fQuant > gate {
		t.Fatalf("int8 F-score %.4f vs float %.4f: delta %.4f exceeds gate", fQuant, fFloat, fFloat-fQuant)
	}
	if fFloat-fSkip > gate {
		t.Fatalf("int8+skip F-score %.4f vs float %.4f: delta %.4f exceeds gate", fSkip, fFloat, fFloat-fSkip)
	}
}

// TestQuantStreamingEngine drives the StreamEngine on the quant tier with
// residual skip, checking every frame gets a mask and the streaming output
// matches the batch pipeline run with the same settings.
func TestQuantStreamingEngine(t *testing.T) {
	v := makeTestVideo(18, 1.2)
	stream := encodeTestVideo(t, v)
	nns, q := quantTestNet(t, 21)

	oracle := segment.NewOracle("oracle", v.Masks, 0, 0, 1)
	bp := New(oracle, nns)
	bp.Quant = q
	bp.SkipResidual = true
	ref, err := bp.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}

	sp := &StreamingPipeline{NNL: oracle, NNS: nns, Quant: q, Refine: true, SkipResidual: true}
	dec, err := codec.NewStreamDecoder(stream, codec.DecodeSideInfo)
	if err != nil {
		t.Fatal(err)
	}
	e := sp.NewEngine(dec)
	got := make(map[int]*video.Mask)
	for {
		mo, err := e.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if mo == nil {
			break
		}
		if mo.Mask == nil {
			t.Fatalf("frame %d has no mask", mo.Display)
		}
		got[mo.Display] = mo.Mask
	}
	for d := range ref.Masks {
		if !maskEqual(got[d], ref.Masks[d]) {
			t.Fatalf("frame %d: engine mask differs from batch pipeline", d)
		}
	}
}
