// Package core implements the VR-DANN algorithm (Sec III): decode the
// bitstream for I/P pixels and B-frame motion vectors, segment I/P-frames
// with the large network NN-L, reconstruct each B-frame's segmentation from
// its motion vectors and the reference-frame results, and refine the
// reconstruction with the lightweight NN-S on a sandwich three-channel
// input. The same machinery extends to detection by treating the detector
// box as a rectangular mask (Sec III-B).
package core

import (
	"context"
	"fmt"

	"vrdann/internal/codec"
	"vrdann/internal/detect"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// Pipeline bundles the two networks of the VR-DANN scheme.
type Pipeline struct {
	// NNL is the large segmentation network applied to I/P-frames (the paper
	// borrows FAVOS's ROI SegNet parameters).
	NNL segment.Segmenter
	// NNS is the lightweight refinement network for B-frames.
	NNS *nn.RefineNet
	// Quant, when non-nil, routes B-frame refinement through the int8
	// execution tier instead of the float NNS. Accuracy is gated on F-score
	// delta against the float path, not bit identity.
	Quant *nn.QuantRefineNet
	// Refine toggles NN-S refinement; disabling it yields the raw
	// motion-vector reconstruction (ablation of Sec III-A-2).
	Refine bool
	// SkipResidual enables residual-driven sparsity: B-frame blocks whose
	// decoded residual energy is at or below SkipThreshold keep their
	// MV-reconstructed mask, and NN-S runs only over the dirty rectangle.
	// A frame with no dirty blocks skips NN-S entirely.
	SkipResidual bool
	// SkipThreshold is the per-block residual-energy cutoff of SkipResidual;
	// 0 (the default) skips only blocks whose motion-compensated prediction
	// was bit-exact at the coding QP.
	SkipThreshold int
	// Workers selects the execution mode: <= 1 runs the classic serial
	// decode-order loop; > 1 runs the overlapped pipeline of Sec IV's agent
	// unit in software — decoding, reconstruction and NN-L anchor inference
	// proceed on the caller while B-frame NN-S refinement runs on Workers
	// goroutines. Output is bit-identical either way (see WithWorkers).
	Workers int
	// Obs, when non-nil, collects per-stage latency, queue-depth gauges and
	// span traces for the run. Nil (the default) costs one pointer check
	// per instrumentation site and nothing else.
	Obs *obs.Collector
}

// Option configures a Pipeline built with New.
type Option func(*Pipeline)

// WithWorkers sets the worker count of the overlapped execution mode.
// n <= 1 keeps the serial decode-order loop; larger n overlaps B-frame
// NN-S refinement with decoding and NN-L anchor inference on n goroutines.
// Masks, detections and Stats are bit-identical for every n, so benchmarks
// can sweep 1..NumCPU freely.
func WithWorkers(n int) Option {
	return func(p *Pipeline) { p.Workers = n }
}

// WithObserver attaches a metrics collector to the pipeline.
func WithObserver(c *obs.Collector) Option {
	return func(p *Pipeline) { p.Obs = c }
}

// New builds a pipeline with refinement enabled whenever a refinement
// network is supplied, then applies the options.
func New(nnl segment.Segmenter, nns *nn.RefineNet, opts ...Option) *Pipeline {
	p := &Pipeline{NNL: nnl, NNS: nns, Refine: nns != nil}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Stats counts the work the pipeline performed.
type Stats struct {
	IFrames, PFrames, BFrames int
	NNLRuns, NNSRuns          int
	MVCount                   int
	BiRefMVs                  int
	IntraFallbackBlocks       int
}

// Result is the output of a segmentation run.
type Result struct {
	Masks  []*video.Mask // display order, one per frame
	Decode *codec.DecodeResult
	Stats  Stats
}

// RunSegmentation executes the full Fig 5 flow on an encoded bitstream.
//
// On success the returned Result is complete. On error the Result is still
// returned (not nil): its Stats hold exactly the counters the serial
// decode-order loop accumulates up to and including the failing frame —
// identical for every worker count — while its masks are partial and
// unspecified. Callers that only check err keep their existing behaviour.
func (p *Pipeline) RunSegmentation(stream []byte) (*Result, error) {
	return p.RunSegmentationContext(context.Background(), stream)
}

// RunSegmentationContext is RunSegmentation with cancellation: the context
// is checked before every frame (serial) or decode step (parallel); a
// cancelled run returns ctx.Err() after all its goroutines have drained.
// The partial Result's masks and Stats are unspecified on cancellation.
func (p *Pipeline) RunSegmentationContext(ctx context.Context, stream []byte) (*Result, error) {
	dec, err := codec.DecodeObserved(stream, codec.DecodeSideInfo, p.Obs)
	if err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	return p.segmentDecoded(ctx, dec)
}

// segmentDecoded runs segmentation over a decoded stream. Workers <= 1 is
// the serial oracle runDecoded; Workers > 1 is the overlapped driver over a
// StreamEngine fed from a cursor, so nothing is decoded twice.
func (p *Pipeline) segmentDecoded(ctx context.Context, dec *codec.DecodeResult) (*Result, error) {
	if p.Workers <= 1 {
		return p.runDecoded(ctx, dec)
	}
	res := &Result{Masks: make([]*video.Mask, len(dec.Types)), Decode: dec}
	var err error
	res.Stats, err = p.runEngine(ctx, dec, func(mo MaskOut) error {
		res.Masks[mo.Display] = mo.Mask
		return nil
	})
	return res, err
}

// runEngine drives a StreamEngine over a decoded stream at the pipeline's
// worker count and returns the counters the engine accumulated.
func (p *Pipeline) runEngine(ctx context.Context, dec *codec.DecodeResult, emit func(MaskOut) error) (Stats, error) {
	e := p.newEngine(&decodedCursor{dec: dec}, dec.Types, dec.Cfg, dec.W, dec.H)
	_, err := e.run(ctx, p.Workers, emit)
	return e.stats, err
}

// refiner builds the NN-S executor for one goroutine, and is the one place
// the pipeline chooses between the float and int8 tiers. The network is
// cloned whenever it cannot be used in place: always for an overlapped
// worker (a forward writes per-instance scratch), and in serial paths when
// an observer must be attached without mutating the caller's network.
func (p *Pipeline) refiner(clone bool) *segment.Refiner {
	if !p.Refine {
		return nil
	}
	if p.Quant != nil {
		q := p.Quant
		if clone || p.Obs != nil {
			q = q.Clone()
			if p.Obs != nil {
				q.SetObserver(p.Obs)
			}
		}
		return segment.NewQuantRefiner(q)
	}
	if p.NNS == nil {
		return nil
	}
	net := p.NNS
	if clone || p.Obs != nil {
		net = net.Clone()
		if p.Obs != nil {
			net.SetObserver(p.Obs)
		}
	}
	return segment.NewRefiner(net)
}

// refineB computes one B-frame's refined mask, applying the residual skip
// when enabled: clean frames reuse the MV reconstruction without touching
// NN-S, partially dirty frames refine only the dirty rectangle (cropped
// sandwich, pasted back over the reconstruction). The bool reports whether
// NN-S actually ran.
func (p *Pipeline) refineB(r *segment.Refiner, info codec.FrameInfo, rec *segment.ReconMask, prev, next *video.Mask, w, h, blockSize int) (*video.Mask, bool) {
	if !p.SkipResidual {
		return r.Refine(prev, rec, next), true
	}
	rect, dirty, total, known := segment.ResidualDirtyRect(info.BlockEnergy, w, h, blockSize, p.SkipThreshold, segment.ResidualHalo)
	if !known {
		// No usable energy field (pre-field bitstream): the blocks were never
		// judged, so they count as unknown, not dirty.
		p.Obs.Count(obs.CounterQuantBlocksUnknown, int64(total))
	} else {
		p.Obs.Count(obs.CounterQuantBlocksSkipped, int64(total-dirty))
		p.Obs.Count(obs.CounterQuantBlocksDirty, int64(dirty))
	}
	if rect.Empty() {
		return rec.Binary(), false
	}
	if rect.Full(w, h) {
		return r.Refine(prev, rec, next), true
	}
	base := rec.Binary()
	sub := r.Refine(segment.CropMask(prev, rect), rec.Crop(rect), segment.CropMask(next, rect))
	segment.PasteMask(base, sub, rect.X0, rect.Y0)
	return base, true
}

// runDecoded is the serial decode-order loop written out in one piece. It
// deliberately shares no frame-step code with StreamEngine: it is the
// oracle the differential tests and the benchmark's correctness gate
// compare every engine-served mask against.
func (p *Pipeline) runDecoded(ctx context.Context, dec *codec.DecodeResult) (*Result, error) {
	res := &Result{
		Masks:  make([]*video.Mask, len(dec.Types)),
		Decode: dec,
	}
	refiner := p.refiner(false)
	segs := make(map[int]*video.Mask) // anchor segmentations by display index
	for _, d := range dec.Order {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		info := dec.Infos[d]
		switch info.Type {
		case codec.IFrame, codec.PFrame:
			t0 := p.Obs.Clock()
			m := p.NNL.Segment(dec.Frames[d], d)
			p.Obs.Span(obs.StageNNL, d, byte(info.Type), t0)
			segs[d] = m
			res.Masks[d] = m
			res.Stats.NNLRuns++
			if info.Type == codec.IFrame {
				res.Stats.IFrames++
			} else {
				res.Stats.PFrames++
			}
		case codec.BFrame:
			res.Stats.BFrames++
			t0 := p.Obs.Clock()
			rec, err := segment.Reconstruct(info, segs, dec.W, dec.H, dec.Cfg.BlockSize)
			p.Obs.Span(obs.StageReconstruct, d, byte(info.Type), t0)
			if err != nil {
				return res, fmt.Errorf("core: frame %d: %w", d, err)
			}
			res.Stats.MVCount += len(info.MVs)
			for _, mv := range info.MVs {
				if mv.BiRef {
					res.Stats.BiRefMVs++
				}
			}
			res.Stats.IntraFallbackBlocks += info.Blocks - len(info.MVs)
			if refiner != nil {
				prev, next := flankingAnchors(dec.Types, segs, d)
				t1 := p.Obs.Clock()
				m, ran := p.refineB(refiner, info, rec, prev, next, dec.W, dec.H, dec.Cfg.BlockSize)
				res.Masks[d] = m
				p.Obs.Span(obs.StageRefine, d, byte(info.Type), t1)
				if ran {
					res.Stats.NNSRuns++
				}
			} else {
				res.Masks[d] = rec.Binary()
			}
		}
		p.Obs.GaugeSet(obs.GaugeRefWindow, int64(len(segs)))
	}
	return res, nil
}

// FlankingAnchors returns the segmentations of the immediately preceding
// and following anchor frames available in segs — the sandwich channels of
// Sec III-A-2. Exposed for callers that build NN-S inputs outside the
// pipeline (e.g. the INT8 calibration set).
func FlankingAnchors(types []codec.FrameType, segs map[int]*video.Mask, d int) (prev, next *video.Mask) {
	return flankingAnchors(types, segs, d)
}

// flankingAnchors returns the segmentations of the immediately preceding
// and following anchor frames (Sec III-A-2: "the temporally closest
// frames"). At sequence edges the available side is duplicated.
func flankingAnchors(types []codec.FrameType, segs map[int]*video.Mask, d int) (prev, next *video.Mask) {
	for i := d - 1; i >= 0; i-- {
		if types[i].IsAnchor() {
			if m, ok := segs[i]; ok {
				prev = m
				break
			}
		}
	}
	for i := d + 1; i < len(types); i++ {
		if types[i].IsAnchor() {
			if m, ok := segs[i]; ok {
				next = m
				break
			}
		}
	}
	if prev == nil {
		prev = next
	}
	if next == nil {
		next = prev
	}
	return prev, next
}

// BoxDetector produces scored detections for one decoded frame; it plays
// the role NN-L plays for segmentation when VR-DANN is applied to video
// detection.
type BoxDetector interface {
	Detect(f *video.Frame, display int) []detect.Detection
	Name() string
}

// DetectionResult is the output of a detection run.
type DetectionResult struct {
	Detections [][]detect.Detection // display order
	Decode     *codec.DecodeResult
	Stats      Stats
}

// RunDetection applies the VR-DANN scheme to video detection: the detector
// runs on I/P-frames; each detected box becomes a rectangular mask whose
// B-frame propagation reuses the segmentation reconstruction, and the
// propagated mask's bounding box is the B-frame detection (Sec III-B).
//
// Error-path Stats follow the RunSegmentation contract: on failure the
// returned result carries the serial decode-order prefix counters,
// identical for every worker count.
func (p *Pipeline) RunDetection(stream []byte, det BoxDetector) (*DetectionResult, error) {
	return p.RunDetectionContext(context.Background(), stream, det)
}

// RunDetectionContext is RunDetection with cancellation, under the same
// contract as RunSegmentationContext.
func (p *Pipeline) RunDetectionContext(ctx context.Context, stream []byte, det BoxDetector) (*DetectionResult, error) {
	dec, err := codec.DecodeObserved(stream, codec.DecodeSideInfo, p.Obs)
	if err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	return p.detectDecoded(ctx, dec, det)
}

// detectDecoded is the segmentation frame step with the detector standing
// in for NN-L and refinement off: anchors rasterize their boxes into the
// reference window, B-frames come out as the raw MV reconstruction of those
// rasters, and bDetection turns each one back into a box as it is emitted.
func (p *Pipeline) detectDecoded(ctx context.Context, dec *codec.DecodeResult, det BoxDetector) (*DetectionResult, error) {
	res := &DetectionResult{
		Detections: make([][]detect.Detection, len(dec.Types)),
		Decode:     dec,
	}
	nnl := &boxSegmenter{det: det, res: res, scores: make([]float64, len(dec.Types))}
	dp := &Pipeline{NNL: nnl, Workers: p.Workers, Obs: p.Obs}
	var err error
	res.Stats, err = dp.runEngine(ctx, dec, func(mo MaskOut) error {
		if mo.Type == codec.BFrame {
			res.Detections[mo.Display] = bDetection(dec.Infos[mo.Display], mo.Mask, nnl.scores)
		}
		return nil
	})
	return res, err
}

// boxSegmenter presents a BoxDetector as the engine's anchor Segmenter: it
// records the anchor's detections and returns their raster.
type boxSegmenter struct {
	det    BoxDetector
	res    *DetectionResult
	scores []float64 // best detection score per anchor, by display index
}

func (b *boxSegmenter) Name() string { return b.det.Name() }

func (b *boxSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	dets := b.det.Detect(f, display)
	b.res.Detections[display] = dets
	m, s := anchorBoxMask(dets, b.res.Decode.W, b.res.Decode.H)
	b.scores[display] = s
	return m
}

// anchorBoxMask rasterizes an anchor frame's detections into the mask the
// B-frame reconstruction propagates, and returns the best score.
func anchorBoxMask(dets []detect.Detection, w, h int) (*video.Mask, float64) {
	m := video.NewMask(w, h)
	var s float64
	for _, dd := range dets {
		fillRect(m, dd.Box)
		if dd.Score > s {
			s = dd.Score
		}
	}
	return m, s
}

// bDetection turns one B-frame's propagated box mask back into a detection
// scored by the anchors its motion vectors referenced (Sec III-B).
func bDetection(info codec.FrameInfo, propagated *video.Mask, scores []float64) []detect.Detection {
	score := 0.0
	n := 0
	for _, mv := range info.MVs {
		score += scores[mv.Ref]
		n++
	}
	if n > 0 {
		score /= float64(n)
	} else {
		score = 0.5
	}
	// Stray blocks whose motion vectors grazed the reference box would
	// blow up the bounding box; keep only the dominant component and trim
	// macro-block protrusions from its extent.
	box := detect.RobustBox(segment.LargestComponent(propagated), 0.02)
	if box.Empty() {
		return nil
	}
	return []detect.Detection{{Box: box, Score: score}}
}

func fillRect(m *video.Mask, r video.Rect) {
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			m.Set(x, y, 1)
		}
	}
}
