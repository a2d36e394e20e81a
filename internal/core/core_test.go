package core

import (
	"math/rand"
	"testing"

	"vrdann/internal/codec"
	"vrdann/internal/detect"
	"vrdann/internal/nn"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

func makeTestVideo(frames int, speed float64) *video.Video {
	return video.Generate(video.SceneSpec{
		Name: "core-test", W: 64, H: 48, Frames: frames, Seed: 42, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 10, X: 24, Y: 24,
			VX: speed, VY: speed / 2, Intensity: 220, Foreground: true,
		}},
	})
}

func encodeTestVideo(t *testing.T, v *video.Video) []byte {
	t.Helper()
	st, err := codec.Encode(v, codec.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st.Data
}

func TestPipelineWithoutRefineRunsAllFrames(t *testing.T) {
	v := makeTestVideo(16, 1.5)
	stream := encodeTestVideo(t, v)
	p := &Pipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1), Refine: false}
	res, err := p.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Masks) != 16 {
		t.Fatalf("got %d masks", len(res.Masks))
	}
	for d, m := range res.Masks {
		if m == nil {
			t.Fatalf("frame %d has no mask", d)
		}
	}
	if res.Stats.BFrames == 0 || res.Stats.NNLRuns == 0 {
		t.Fatalf("stats look wrong: %+v", res.Stats)
	}
	if res.Stats.NNLRuns != res.Stats.IFrames+res.Stats.PFrames {
		t.Fatal("NN-L must run exactly once per anchor")
	}
	if res.Stats.NNSRuns != 0 {
		t.Fatal("refinement disabled but NN-S ran")
	}
}

func TestPipelineReconstructionQualityWithPerfectNNL(t *testing.T) {
	// With a perfect NN-L and a slow-moving object, pure MV reconstruction
	// should already track the ground truth well on B-frames.
	v := makeTestVideo(20, 1.0)
	stream := encodeTestVideo(t, v)
	p := &Pipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1)}
	res, err := p.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	var score segment.SeqScore
	for d, ty := range res.Decode.Types {
		if ty == codec.BFrame {
			score.Add(res.Masks[d], v.Masks[d])
		}
	}
	_, j := score.Mean()
	if j < 0.75 {
		t.Fatalf("B-frame reconstruction IoU = %.3f, want > 0.75", j)
	}
}

func TestPipelineRefinementImprovesNoisyReconstruction(t *testing.T) {
	// Train NN-S (2 epochs, as in the paper) on the held-out training set,
	// then check refined B-frames beat the raw reconstruction in the regime
	// the network targets: imperfect NN-L references and a deforming object.
	if testing.Short() {
		t.Skip("NN-S training is slow")
	}
	train := video.MakeTrainingSet(64, 48, 16)
	nns, err := TrainNNS(train, codec.DefaultConfig(), TrainConfig{Features: 8, Epochs: 2, LR: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := video.Generate(video.SceneSpec{
		Name: "deform", W: 64, H: 48, Frames: 16, Seed: 55, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 11, X: 28, Y: 24, VX: 1.4, VY: 0.4,
			Deform: 0.25, DeformRate: 0.3, Intensity: 220, Foreground: true,
		}},
	})
	stream := encodeTestVideo(t, v)
	oracle := segment.NewOracle("oracle", v.Masks, 0.06, 2, 1)

	raw := &Pipeline{NNL: oracle, Refine: false}
	ref := &Pipeline{NNL: oracle, NNS: nns, Refine: true}
	rawRes, err := raw.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	var rawScore, refScore segment.SeqScore
	for d, ty := range rawRes.Decode.Types {
		if ty == codec.BFrame {
			rawScore.Add(rawRes.Masks[d], v.Masks[d])
			refScore.Add(refRes.Masks[d], v.Masks[d])
		}
	}
	rawF, rawJ := rawScore.Mean()
	refF, refJ := refScore.Mean()
	t.Logf("raw F=%.4f J=%.4f refined F=%.4f J=%.4f", rawF, rawJ, refF, refJ)
	if refJ+refF < rawJ+rawF {
		t.Fatalf("refinement hurt: raw (F=%.4f, J=%.4f) refined (F=%.4f, J=%.4f)", rawF, rawJ, refF, refJ)
	}
	if refRes.Stats.NNSRuns != refRes.Stats.BFrames {
		t.Fatal("NN-S must run once per B-frame")
	}
}

func TestPipelineAnchorsUseNNLDirectly(t *testing.T) {
	v := makeTestVideo(12, 1.0)
	stream := encodeTestVideo(t, v)
	p := &Pipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1)}
	res, err := p.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	for d, ty := range res.Decode.Types {
		if ty.IsAnchor() {
			if segment.IoU(res.Masks[d], v.Masks[d]) != 1 {
				t.Fatalf("anchor %d mask should be the oracle output", d)
			}
		}
	}
}

func TestPipelineRejectsGarbageStream(t *testing.T) {
	p := &Pipeline{NNL: segment.NewOracle("oracle", nil, 0, 0, 1)}
	if _, err := p.RunSegmentation([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected decode error")
	}
}

// gtBoxDetector returns the ground-truth box with a fixed score.
type gtBoxDetector struct{ v *video.Video }

func (g *gtBoxDetector) Detect(_ *video.Frame, display int) []detect.Detection {
	b := g.v.Boxes[display]
	if b.Empty() {
		return nil
	}
	return []detect.Detection{{Box: b, Score: 0.95}}
}
func (g *gtBoxDetector) Name() string { return "gt" }

func TestRunDetectionTracksObject(t *testing.T) {
	v := video.Generate(video.SceneSpec{
		Name: "det-test", W: 96, H: 64, Frames: 16, Seed: 42, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 16, X: 36, Y: 32,
			VX: 1.5, VY: 0.7, Intensity: 220, Foreground: true,
		}},
	})
	stream := encodeTestVideo(t, v)
	p := &Pipeline{}
	res, err := p.RunDetection(stream, &gtBoxDetector{v})
	if err != nil {
		t.Fatal(err)
	}
	gts := detect.GTBoxes(v)
	ap := detect.AP(res.Detections, gts, 0.5)
	if ap < 0.8 {
		t.Fatalf("detection AP = %.3f, want > 0.8", ap)
	}
	// Every frame must have a detection.
	for d, dets := range res.Detections {
		if len(dets) == 0 {
			t.Fatalf("frame %d has no detection", d)
		}
	}
}

func TestTrainNNSLearns(t *testing.T) {
	train := video.MakeTrainingSet(64, 48, 10)[:2]
	net, err := TrainNNS(train, codec.DefaultConfig(), TrainConfig{Features: 4, Epochs: 1, LR: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if net == nil {
		t.Fatal("nil network")
	}
	// The trained net should roughly reproduce a clean reconstruction.
	m := video.NewMask(64, 48)
	for y := 16; y < 32; y++ {
		for x := 16; x < 32; x++ {
			m.Set(x, y, 1)
		}
	}
	rec := segment.NewReconMask(64, 48)
	for y := 16; y < 32; y++ {
		for x := 16; x < 32; x++ {
			rec.Pix[y*64+x] = segment.ReconWhite
		}
	}
	out := segment.Refine(net, m, rec, m)
	if iou := segment.IoU(out, m); iou < 0.6 {
		t.Fatalf("trained NN-S IoU on clean square = %.3f", iou)
	}
}

func TestTrainNNSRejectsEmptySet(t *testing.T) {
	if _, err := TrainNNS(nil, codec.DefaultConfig(), DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestPipelineSurvivesSceneCut(t *testing.T) {
	// Two unrelated scenes joined by a hard cut: the encoder's I-refresh
	// must keep VR-DANN's B-frame propagation from bleeding across the cut.
	a := video.Generate(video.SceneSpec{
		Name: "cutA", W: 64, H: 48, Frames: 12, Seed: 41, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 10, X: 20, Y: 24, VX: 1, Intensity: 230, Foreground: true,
		}},
	})
	b := video.Generate(video.SceneSpec{
		Name: "cutB", W: 64, H: 48, Frames: 12, Seed: 5150, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeBox, Radius: 9, X: 44, Y: 20, VX: -0.8, Intensity: 60, Foreground: true,
		}},
	})
	for _, f := range b.Frames {
		for i := range f.Pix {
			if f.Pix[i] > 75 {
				f.Pix[i] -= 75
			}
		}
	}
	v := video.Concat(a, b)
	stream := encodeTestVideo(t, v)
	p := &Pipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1), Refine: false}
	res, err := p.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy on the frames right after the cut must stay reasonable.
	var post segment.SeqScore
	for d := 12; d < 16; d++ {
		post.Add(res.Masks[d], v.Masks[d])
	}
	_, j := post.Mean()
	if j < 0.6 {
		t.Fatalf("post-cut IoU %.3f: propagation bled across the cut", j)
	}
}

func TestPipelineUnderOcclusion(t *testing.T) {
	// A non-foreground occluder crosses the object: ground truth excludes
	// occluded pixels, and the pipeline should track the visible part.
	v := video.Generate(video.SceneSpec{
		Name: "occl", W: 96, H: 64, Frames: 20, Seed: 77, Noise: 1.5,
		Objects: []video.ObjectSpec{
			{Shape: video.ShapeDisk, Radius: 13, X: 48, Y: 32, VX: 0.3, Intensity: 220, Foreground: true},
			{Shape: video.ShapeBox, Radius: 8, X: 10, Y: 30, VX: 4, Intensity: 70, Foreground: false},
		},
	})
	stream := encodeTestVideo(t, v)
	p := &Pipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1), Refine: false}
	res, err := p.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	var s segment.SeqScore
	for d := range res.Masks {
		s.Add(res.Masks[d], v.Masks[d])
	}
	_, j := s.Mean()
	if j < 0.7 {
		t.Fatalf("occlusion sequence IoU %.3f too low", j)
	}
}

func TestWithWorkersOption(t *testing.T) {
	p := New(segment.NewOracle("oracle", nil, 0, 0, 1), nil, WithWorkers(3))
	if p.Workers != 3 || p.Refine {
		t.Fatalf("New misconfigured pipeline: %+v", p)
	}
	nns := nn.NewRefineNet(rand.New(rand.NewSource(1)), 4)
	if q := New(nil, nns); !q.Refine {
		t.Fatal("New must enable refinement when NN-S is supplied")
	}
}
