package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vrdann/internal/codec"
	"vrdann/internal/detect"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// matrixWorkers sweeps the overlapped mode well past the host's core count;
// bit-identity must hold regardless of physical parallelism.
var matrixWorkers = []int{1, 2, 4, 8}

// matrixOut is everything one run is compared on.
type matrixOut struct {
	masks   []*video.Mask        // display order (segmentation rows)
	dets    [][]detect.Detection // display order (detection row)
	order   []int                // emission order, when the row observes it
	stats   Stats
	maxSegs int // -1 when the row's API does not report it
	err     error
}

// matrixRow is one pipeline configuration: the untouched serial oracle and
// the production path under test, both over the same decoded stream.
type matrixRow struct {
	name   string
	oracle func(dec *codec.DecodeResult) matrixOut
	run    func(workers int, dec *codec.DecodeResult) matrixOut
}

func maskEqual(a, b *video.Mask) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.W == b.W && a.H == b.H && bytes.Equal(a.Pix, b.Pix)
}

// matrixRows builds the rows over one test video. Every segmentation row
// runs a noisy oracle NN-L plus an untrained, deterministic NN-S, which
// exercises each stage: NN-L inference, MV reconstruction, sandwich
// refinement.
func matrixRows(t *testing.T, v *video.Video, stream []byte) []matrixRow {
	nns, quant := quantTestNet(t, 11)
	seg := func(name string, cfg func(*Pipeline)) matrixRow {
		build := func(workers int) *Pipeline {
			p := &Pipeline{NNL: segment.NewOracle("oracle", v.Masks, 0.05, 1, 9), Workers: workers}
			cfg(p)
			return p
		}
		return matrixRow{
			name: name,
			oracle: func(dec *codec.DecodeResult) matrixOut {
				res, err := build(0).runDecoded(context.Background(), dec)
				return matrixOut{masks: res.Masks, stats: res.Stats, maxSegs: -1, err: err}
			},
			run: func(workers int, dec *codec.DecodeResult) matrixOut {
				res, err := build(workers).segmentDecoded(context.Background(), dec)
				return matrixOut{masks: res.Masks, stats: res.Stats, maxSegs: -1, err: err}
			},
		}
	}
	refine := func(p *Pipeline) { p.NNS, p.Refine = nns, true }
	rows := []matrixRow{
		seg("seg", refine),
		seg("seg-norefine", func(*Pipeline) {}),
		seg("seg+skip", func(p *Pipeline) { refine(p); p.SkipResidual = true }),
		seg("seg+quant", func(p *Pipeline) { refine(p); p.Quant = quant }),
	}

	// Detection has no serial loop of its own any more. Its oracle is the
	// segmentation oracle over the rasterized boxes with refinement off,
	// post-processed by the same bDetection.
	det := &gtBoxDetector{v}
	rows = append(rows, matrixRow{
		name: "detection",
		oracle: func(dec *codec.DecodeResult) matrixOut {
			want := &DetectionResult{Detections: make([][]detect.Detection, len(dec.Types)), Decode: dec}
			nnl := &boxSegmenter{det: det, res: want, scores: make([]float64, len(dec.Types))}
			res, err := (&Pipeline{NNL: nnl}).runDecoded(context.Background(), dec)
			for d, m := range res.Masks {
				if dec.Types[d] == codec.BFrame && m != nil {
					want.Detections[d] = bDetection(dec.Infos[d], m, nnl.scores)
				}
			}
			return matrixOut{dets: want.Detections, stats: res.Stats, maxSegs: -1, err: err}
		},
		run: func(workers int, dec *codec.DecodeResult) matrixOut {
			res, err := (&Pipeline{Workers: workers}).detectDecoded(context.Background(), dec, det)
			return matrixOut{dets: res.Detections, stats: res.Stats, maxSegs: -1, err: err}
		},
	})

	// The streaming form decodes the bytes itself through a StreamDecoder
	// (the batch rows feed the engine from a cursor), so it ignores dec.
	rows = append(rows, matrixRow{
		name:   "streaming",
		oracle: rows[0].oracle,
		run: func(workers int, _ *codec.DecodeResult) matrixOut {
			sd, err := codec.NewStreamDecoder(stream, codec.DecodeSideInfo)
			if err != nil {
				t.Fatal(err)
			}
			sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", v.Masks, 0.05, 1, 9), NNS: nns, Refine: true}
			e := sp.NewEngine(sd)
			out := matrixOut{masks: make([]*video.Mask, v.Len())}
			out.maxSegs, out.err = e.run(context.Background(), workers, func(mo MaskOut) error {
				out.masks[mo.Display] = mo.Mask
				out.order = append(out.order, mo.Display)
				return nil
			})
			out.stats = e.stats
			return out
		},
	})
	return rows
}

// requireSameOutput fails unless got carries exactly want's masks and
// detections.
func requireSameOutput(t *testing.T, got, want matrixOut) {
	t.Helper()
	if len(got.masks) != len(want.masks) || len(got.dets) != len(want.dets) {
		t.Fatalf("%d masks / %d detection frames, want %d / %d", len(got.masks), len(got.dets), len(want.masks), len(want.dets))
	}
	for d := range want.masks {
		if !maskEqual(got.masks[d], want.masks[d]) {
			t.Fatalf("frame %d mask differs from the serial oracle", d)
		}
	}
	for d := range want.dets {
		if len(got.dets[d]) != len(want.dets[d]) {
			t.Fatalf("frame %d has %d detections, want %d", d, len(got.dets[d]), len(want.dets[d]))
		}
		for i := range want.dets[d] {
			if got.dets[d][i] != want.dets[d][i] {
				t.Fatalf("frame %d detection %d: got %+v want %+v", d, i, got.dets[d][i], want.dets[d][i])
			}
		}
	}
}

// TestMatrixBitIdenticalToSerialOracle is the one differential over every
// pipeline configuration and worker count: masks or detections, Stats and
// maxSegs must equal the serial oracle's, on clean streams and — error and
// decode-order-prefix Stats included — when reconstruction fails at a
// chosen B-frame, no matter which goroutine got there first in wall time.
func TestMatrixBitIdenticalToSerialOracle(t *testing.T) {
	v := video.Generate(video.SceneSpec{
		Name: "matrix", W: 96, H: 64, Frames: 24, Seed: 42, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 16, X: 36, Y: 32,
			VX: 1.5, VY: 0.7, Intensity: 220, Foreground: true,
		}},
	})
	stream := encodeTestVideo(t, v)
	dec, err := codec.Decode(stream, codec.DecodeSideInfo)
	if err != nil {
		t.Fatal(err)
	}
	nB := 0
	for _, info := range dec.Infos {
		if info.Type == codec.BFrame && len(info.MVs) > 0 {
			nB++
		}
	}
	if nB < 3 {
		t.Fatalf("test stream has only %d usable B-frames", nB)
	}
	faults := []struct {
		name string
		fail []int // motion-carrying B-frames (decode order) to corrupt
	}{
		{"first-b", []int{0}},
		{"middle-b", []int{nB / 2}},
		{"last-b", []int{nB - 1}},
		{"two-failures-reports-first", []int{1, nB - 1}},
	}
	for _, row := range matrixRows(t, v, stream) {
		t.Run(row.name, func(t *testing.T) {
			want := row.oracle(dec)
			if want.err != nil {
				t.Fatal(want.err)
			}
			serialMax := -1
			for _, nw := range matrixWorkers {
				t.Run(fmt.Sprintf("workers=%d", nw), func(t *testing.T) {
					got := row.run(nw, dec)
					if got.err != nil {
						t.Fatal(got.err)
					}
					requireSameOutput(t, got, want)
					if got.stats != want.stats {
						t.Fatalf("stats diverge:\n got %+v\nwant %+v", got.stats, want.stats)
					}
					if got.order != nil && fmt.Sprint(got.order) != fmt.Sprint(dec.Order) {
						t.Fatalf("emitted in order %v, want decode order %v", got.order, dec.Order)
					}
					if serialMax < 0 {
						serialMax = got.maxSegs
					}
					if got.maxSegs != serialMax {
						t.Fatalf("maxSegs = %d, serial engine held %d", got.maxSegs, serialMax)
					}
				})
			}
			if row.name == "streaming" {
				return // decodes the bytes itself; nothing to inject into
			}
			for _, fc := range faults {
				bad := dec
				for _, f := range fc.fail {
					bad = corruptBFrame(t, bad, f, 9999)
				}
				want := row.oracle(bad)
				if want.err == nil || !strings.Contains(want.err.Error(), "missing reference segmentation") {
					t.Fatalf("%s: oracle error = %v", fc.name, want.err)
				}
				for _, nw := range matrixWorkers {
					got := row.run(nw, bad)
					if got.err == nil || got.err.Error() != want.err.Error() {
						t.Fatalf("%s workers=%d: error %q, serial oracle %q", fc.name, nw, got.err, want.err)
					}
					if got.stats != want.stats {
						t.Fatalf("%s workers=%d partial Stats diverge:\n got %+v\nwant %+v", fc.name, nw, got.stats, want.stats)
					}
				}
			}
		})
	}
}

// countingSegmenter counts NN-L invocations.
type countingSegmenter struct {
	segment.Segmenter
	n int
}

func (c *countingSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	c.n++
	return c.Segmenter.Segment(f, display)
}

// TestMaskSourceHonouredWhenOverlapped pins that the overlapped driver goes
// through StepPrepare like every other caller: with a source that serves the
// oracle's masks, Workers: 4 emits exactly those masks, holds the same
// working set, and runs neither network nor any reconstruction.
func TestMaskSourceHonouredWhenOverlapped(t *testing.T) {
	v := makeTestVideo(24, 1.5)
	stream := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	oracle := segment.NewOracle("oracle", v.Masks, 0.05, 1, 9)
	want, err := (&Pipeline{NNL: oracle, NNS: nns, Refine: true}).RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}
	wantMax, err := (&StreamingPipeline{NNL: oracle, NNS: nns, Refine: true}).RunInstrumented(stream, func(MaskOut) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	nnl := &countingSegmenter{Segmenter: oracle}
	c := obs.New()
	sp := &StreamingPipeline{
		NNL: nnl, NNS: nns, Refine: true, Workers: 4, Obs: c,
		MaskSource: func(display int, _ codec.FrameType) *video.Mask { return want.Masks[display] },
	}
	emitted := 0
	gotMax, err := sp.RunInstrumented(stream, func(mo MaskOut) error {
		if !maskEqual(mo.Mask, want.Masks[mo.Display]) {
			t.Errorf("frame %d: emitted mask is not the source's", mo.Display)
		}
		emitted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != v.Len() || gotMax != wantMax {
		t.Fatalf("emitted %d frames with maxSegs %d, want %d with %d", emitted, gotMax, v.Len(), wantMax)
	}
	if nnl.n != 0 {
		t.Fatalf("NN-L ran %d times behind a mask source", nnl.n)
	}
	for _, st := range c.Snapshot().Stages {
		switch st.Name {
		case obs.StageNNL.String(), obs.StageRefine.String(), obs.StageReconstruct.String():
			t.Fatalf("stage %s ran %d times behind a mask source", st.Name, st.Count)
		}
	}
}
