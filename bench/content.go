package main

import (
	"fmt"
	"math"
	"math/rand"

	"vrdann/internal/codec"
	"vrdann/internal/video"
)

// Fixed for every workload (ISSUE 11): resolution, chunk length, encoder.
const (
	frameW      = 96
	frameH      = 64
	chunkFrames = 12
)

// clip is one independently encoded 12-frame stream. The program under
// test only ever sees data; truth stays with the benchmark for scoring.
type clip struct {
	data  []byte
	truth []*video.Mask // generator ground truth, display order
}

// classes is the per-slot character of a clip: its motion, and how many
// B-frames the encoder's motion-adaptive planner gives it. The slot, not
// the seed, picks the class, so every seed draws the same mix of slow and
// fast scenes and — since a clip costs about one NN-L per anchor and one
// NN-S per B-frame — the same amount of work. The seed draws everything
// else: texture, position, heading, size, brightness. bframes is the count
// the planner most often picks for the class under codec.DefaultConfig().
// The fast classes, whose count scatters most, sit on even slots, which
// are drawn once and for all (see validationSeed); the odd, seeded slots
// get classes the planner settles within two draws on average, so set-up
// time does not swing with the seed.
var classes = []struct {
	speed, deform, rot, pan float64
	bframes                 int
}{
	{0.4, 0.06, 0.00, 0.2, 8},
	{1.4, 0.14, 0.02, 0.5, 8},
	{3.0, 0.03, 0.02, 1.2, 5},
	{0.8, 0.10, 0.01, 0.3, 8},
	{1.8, 0.02, 0.04, 0.0, 7},
	{2.2, 0.10, 0.02, 0.2, 7},
	{2.4, 0.20, 0.03, 0.9, 6},
	{1.0, 0.20, 0.04, 0.0, 8},
}

// sceneTries bounds the redraws of one clip; past it the draw closest to
// the class's B-frame count stands.
const sceneTries = 24

// validationSeed generates the even slots of every run, whatever -seed
// is. Accuracy is deterministic for fixed content, so scoring it on content
// that changes with the seed would gate scene luck, not the program: the
// fscore metric is taken on these slots alone and repeats exactly, which
// lets it carry a bound far below the seed-to-seed scatter (≈2% on FCN
// workloads, ≈30% on Otsu ones). Odd slots follow -seed; every timing
// metric is measured over both.
const validationSeed = 20200

func validation(slot int) bool { return slot%2 == 0 }

// makeClip renders and encodes the clip of one (seed, slot) pair. Equal
// pairs give equal bytes; distinct slots give distinct content. Scenes are
// redrawn from the pair's random stream until codec.PlanGOP gives the
// class's B-frame count, so the encoder still decides every frame type by
// its own rule and the seed still decides every pixel, but the split of a
// clip between anchors and B-frames does not drift with the seed.
func makeClip(seed int64, slot int) (clip, error) {
	if validation(slot) {
		seed = validationSeed
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(slot)))
	c := classes[slot%len(classes)]
	cfg := codec.DefaultConfig()
	var best *video.Video
	bestOff := chunkFrames
	for try := 0; try < sceneTries && bestOff > 0; try++ {
		heading := rng.Float64() * 2 * math.Pi
		v := video.Generate(video.SceneSpec{
			Name: fmt.Sprintf("bench-%d-%d", seed, slot),
			W:    frameW, H: frameH, Frames: chunkFrames,
			Seed:  rng.Int63(),
			Noise: 2.0,
			PanX:  c.pan, PanY: 0.15 * c.pan,
			Objects: []video.ObjectSpec{{
				Shape:      video.ShapeDisk,
				Radius:     0.17 * frameH * (0.85 + 0.3*rng.Float64()),
				X:          frameW * (0.3 + 0.4*rng.Float64()),
				Y:          frameH * (0.35 + 0.3*rng.Float64()),
				VX:         c.speed * math.Cos(heading),
				VY:         c.speed * 0.5 * math.Sin(heading),
				RotRate:    c.rot,
				Deform:     c.deform,
				DeformRate: 0.25,
				Intensity:  uint8(195 + rng.Intn(20)),
				Foreground: true,
			}},
		})
		b := 0
		for _, t := range codec.PlanGOP(v.Frames, cfg) {
			if t == codec.BFrame {
				b++
			}
		}
		if off := max(b-c.bframes, c.bframes-b); off < bestOff {
			best, bestOff = v, off
		}
	}
	st, err := codec.Encode(best, cfg)
	if err != nil {
		return clip{}, fmt.Errorf("encode %s: %w", best.Name, err)
	}
	return clip{data: st.Data, truth: best.Masks}, nil
}

// makeClips builds slots [0, n) for a seed.
func makeClips(seed int64, n int) ([]clip, error) {
	out := make([]clip, n)
	for i := range out {
		c, err := makeClip(seed, i)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
