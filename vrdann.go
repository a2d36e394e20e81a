// Package vrdann is a full-system reproduction of "VR-DANN: Real-Time Video
// Recognition via Decoder-Assisted Neural Network Acceleration" (Song et
// al., MICRO 2020).
//
// VR-DANN couples a video decoder with an NN accelerator: I/P-frames are
// segmented by a large network (NN-L) while B-frames — the majority of a
// compressed stream — are reconstructed from the motion vectors already in
// the bitstream and refined by a tiny 3-layer network (NN-S). The package
// bundles everything the paper's evaluation needs, implemented from
// scratch on the standard library:
//
//   - an H.264/H.265-style video codec with I/P/B GOPs, motion estimation
//     and a motion-vector side channel (internal/codec)
//   - a trainable CNN framework (internal/nn, internal/tensor)
//   - a synthetic-video substrate with exact ground truth (internal/video)
//   - the VR-DANN algorithm for segmentation and detection (internal/core,
//     internal/segment, internal/detect)
//   - the baselines OSVOS, FAVOS, DFF, Euphrates and SELSA
//     (internal/baseline, internal/flow)
//   - a cycle-level SoC simulator of the VR-DANN-parallel architecture:
//     NPU, DRAM, decoder and agent unit (internal/sim)
//
// This file is the public facade: the types below alias the internal
// implementation so downstream users program against package vrdann alone.
//
// Quick start:
//
//	vid := vrdann.MakeSequence(vrdann.SuiteProfiles[0], 96, 64, 48)
//	stream, _ := vrdann.Encode(vid, vrdann.DefaultEncoderConfig())
//	nns, _ := vrdann.TrainRefiner(vrdann.MakeTrainingSet(96, 64, 32), vrdann.DefaultEncoderConfig(), vrdann.DefaultTrainConfig())
//	p := vrdann.NewPipeline(vrdann.NewOracleSegmenter("NN-L", vid.Masks, 0.08, 2, 1), nns)
//	res, _ := p.RunSegmentation(stream.Data)
//	f, j := vrdann.EvaluateSegmentation(res.Masks, vid.Masks)
package vrdann

import (
	"io"

	"vrdann/internal/adapt"
	"vrdann/internal/baseline"
	"vrdann/internal/codec"
	"vrdann/internal/contentcache"
	"vrdann/internal/core"
	"vrdann/internal/detect"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
	"vrdann/internal/shard"
	"vrdann/internal/sim"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
	"vrdann/internal/vidio"
)

// Video-domain types.
type (
	// Video is a raw frame sequence with ground-truth annotations.
	Video = video.Video
	// Frame is one raw luma frame.
	Frame = video.Frame
	// Mask is a binary segmentation mask.
	Mask = video.Mask
	// Rect is an axis-aligned box.
	Rect = video.Rect
	// SceneSpec describes a synthetic scene for Generate.
	SceneSpec = video.SceneSpec
	// ObjectSpec describes one synthetic moving object.
	ObjectSpec = video.ObjectSpec
	// SeqProfile is a named benchmark-sequence profile.
	SeqProfile = video.SeqProfile
	// ShapeKind selects a synthetic object silhouette.
	ShapeKind = video.ShapeKind
)

// Synthetic object shapes.
const (
	ShapeDisk = video.ShapeDisk
	ShapeBox  = video.ShapeBox
)

// Codec types.
type (
	// EncoderConfig holds the video-encoder parameters (block size, QP,
	// B-frame policy, motion search interval).
	EncoderConfig = codec.Config
	// Stream is an encoded bitstream plus structural metadata.
	Stream = codec.Stream
	// DecodeResult is the decoder output (frames, motion vectors, ordering).
	DecodeResult = codec.DecodeResult
	// MotionVector is one macro-block's referencing relationship.
	MotionVector = codec.MotionVector
	// FrameType is I, P or B.
	FrameType = codec.FrameType
)

// Recognition types.
type (
	// Pipeline is the VR-DANN algorithm (NN-L on anchors, MV reconstruction
	// plus NN-S refinement on B-frames).
	Pipeline = core.Pipeline
	// Result is a segmentation run's output.
	Result = core.Result
	// DetectionResult is a detection run's output.
	DetectionResult = core.DetectionResult
	// TrainConfig controls NN-S training.
	TrainConfig = core.TrainConfig
	// RefineNet is the lightweight NN-S network.
	RefineNet = nn.RefineNet
	// FCN is the trainable fully-convolutional network playing NN-L.
	FCN = nn.FCN
	// NNLTrainConfig controls NN-L training.
	NNLTrainConfig = core.NNLTrainConfig
	// Segmenter produces a mask for a decoded frame (NN-L role).
	Segmenter = segment.Segmenter
	// BoxDetector produces scored boxes for a decoded frame.
	BoxDetector = core.BoxDetector
	// Detection is one scored box.
	Detection = detect.Detection
	// ReconMask is a 2-bit-per-pixel B-frame reconstruction.
	ReconMask = segment.ReconMask
	// StreamingPipeline is the incremental, bounded-memory pipeline form.
	StreamingPipeline = core.StreamingPipeline
	// MaskOut is one result emitted by the streaming pipeline.
	MaskOut = core.MaskOut
	// PipelineOption configures a Pipeline built with NewPipeline.
	PipelineOption = core.Option
)

// WithWorkers overlaps B-frame NN-S refinement, on n goroutines, with
// decoding and NN-L anchor inference (the software analog of the paper's
// agent unit); n <= 1 keeps the serial decode-order loop. Results are
// bit-identical for every n.
func WithWorkers(n int) PipelineOption { return core.WithWorkers(n) }

// Quantized execution tier: NN-S compiled to the arithmetic the modeled
// NPU executes, plus residual-driven sparsity (DESIGN.md §11).
type (
	// QuantRefineNet is NN-S compiled to the int8 execution tier:
	// per-channel weight scales, int8 im2col, int8×int8→int32 GEMM and
	// requantization between layers. Its accuracy contract is an F-score
	// delta gate (≤ 0.5 points against the float path), not bit identity.
	QuantRefineNet = nn.QuantRefineNet
	// Tensor is the dense CHW tensor the networks exchange; the facade
	// exposes it so callers can build quantization calibration inputs.
	Tensor = tensor.Tensor
)

// NewTensor allocates a zeroed CHW tensor.
func NewTensor(c, h, w int) *Tensor { return tensor.New(c, h, w) }

// QuantizeRefiner compiles a trained NN-S to the int8 execution tier,
// calibrating its static activation scales on the given inputs — use
// tensors drawn from the {0, 0.5, 1} alphabet the deployed sandwich
// input actually carries. Deploy the result with WithQuant (single
// pipeline) or ServeConfig.QuantNNS (serving layer).
func QuantizeRefiner(net *RefineNet, calibration []*Tensor) (*QuantRefineNet, error) {
	return nn.NewQuantRefineNet(net, calibration)
}

// WithQuant routes B-frame refinement through the int8 execution tier
// instead of the float NN-S.
func WithQuant(q *QuantRefineNet) PipelineOption {
	return func(p *Pipeline) { p.Quant = q }
}

// WithResidualSkip enables residual-driven sparsity: B-frame blocks whose
// decoded residual energy stays at or below threshold keep their
// MV-reconstructed mask pixels, and NN-S refines only the bounding
// rectangle of the dirty blocks (a frame with none skips NN-S entirely).
// Skipped/dirty block counts land on the quant/blocks-* counters of an
// attached Collector.
func WithResidualSkip(threshold int) PipelineOption {
	return func(p *Pipeline) {
		p.SkipResidual = true
		p.SkipThreshold = threshold
	}
}

// Observability types.
type (
	// Collector gathers per-stage latency histograms, queue-depth gauges,
	// counters and optional span traces from an instrumented run. A nil
	// collector is safe everywhere and costs one pointer check per site.
	Collector = obs.Collector
	// ObsReport is an immutable snapshot of a Collector (JSON-friendly).
	ObsReport = obs.Report
	// SpanEvent is one traced stage execution.
	SpanEvent = obs.SpanEvent
	// Tracer receives span events from an instrumented run.
	Tracer = obs.Tracer
)

// NewCollector builds an empty metrics collector; attach it with
// WithObserver or by setting Pipeline.Obs / StreamingPipeline.Obs.
func NewCollector() *Collector { return obs.New() }

// WithObserver attaches a metrics collector to a pipeline built with
// NewPipeline.
func WithObserver(c *Collector) PipelineOption { return core.WithObserver(c) }

// DisplayOrderEmit wraps a streaming emit callback so results arrive in
// display order with bounded buffering.
func DisplayOrderEmit(emit func(MaskOut) error) func(MaskOut) error {
	return core.DisplayOrder(emit)
}

// Serving types: the multi-stream layer multiplexing many camera feeds
// onto one shared worker pool (the software counterpart of one accelerator
// board serving several streams).
type (
	// Server admits stream sessions, schedules them fairly on a bounded
	// worker pool, and serves masks bit-identical to a standalone run.
	Server = serve.Server
	// ServeConfig parameterizes a Server (admission cap, queue bounds,
	// overflow policy, frame deadline).
	ServeConfig = serve.Config
	// ServeSession is one admitted stream: submit chunks, await frames.
	ServeSession = serve.Session
	// FrameResult is one served frame (mask, type, drop flag, latency).
	FrameResult = serve.FrameResult
	// LoadGen drives a Server with synthetic multi-stream traffic.
	LoadGen = serve.LoadGen
	// LoadReport aggregates one load-generator run (throughput, latency
	// percentiles, drop and rejection counts).
	LoadReport = serve.LoadReport
	// OverflowPolicy selects reject-vs-wait for a full session queue.
	OverflowPolicy = serve.OverflowPolicy
	// StreamEngine steps one stream's pipeline frame by frame — the unit a
	// serving scheduler multiplexes.
	StreamEngine = core.StreamEngine
	// StreamDecoder decodes a bitstream incrementally with a pruned
	// reference window; Reset reuses it across a session's chunks.
	StreamDecoder = codec.StreamDecoder
)

// Queue-overflow policies.
const (
	// OverflowReject fails the submit immediately with an error.
	OverflowReject = serve.Reject
	// OverflowWait blocks the submit until queue space frees.
	OverflowWait = serve.Wait
)

// NewServer starts a multi-stream serving layer and its worker pool. Each
// session's frames, NN-S refinement included, run on whichever pool worker
// holds the session, so served masks are bit-identical to a standalone run.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.NewServer(cfg) }

// Content-addressed mask sharing: sessions serving bit-identical chunks
// under the same model configuration share NN-L/NN-S results through one
// cache, and a broadcast fans one session's decode to many viewers
// (DESIGN.md §12).
type (
	// ContentCache is the shared content-addressed mask cache; a Server
	// with ServeConfig.CacheBytes > 0 constructs one internally, or pass a
	// pre-built cache via ServeConfig.Cache to share it across servers.
	ContentCache = contentcache.Cache
	// ContentCacheConfig parameterizes a ContentCache (byte budget,
	// metrics collector).
	ContentCacheConfig = contentcache.Config
	// ContentKey addresses one cached mask: chunk-bytes digest, display
	// index within the chunk, and model fingerprint.
	ContentKey = contentcache.Key
	// Broadcast is the single-decode fan-out mode: one backing session,
	// many attached viewers receiving every frame result.
	Broadcast = serve.Broadcast
	// BroadcastViewer is one attached consumer of a Broadcast.
	BroadcastViewer = serve.Viewer
)

// NewContentCache builds a standalone content-addressed mask cache for
// sharing across servers via ServeConfig.Cache.
func NewContentCache(cfg ContentCacheConfig) *ContentCache { return contentcache.New(cfg) }

// ChunkDigest hashes encoded chunk bytes for content addressing; equal
// bytes yield equal digests, so identical chunks share cache entries.
func ChunkDigest(data []byte) uint64 { return codec.ChunkDigest(data) }

// ModelFingerprint folds model-identity strings (NN-L label, refinement
// and quantization configuration) into a ContentKey's Model field; cached
// masks are shared only between sessions with equal fingerprints.
func ModelFingerprint(parts ...string) uint64 { return contentcache.Fingerprint(parts...) }

// Sharded multi-node serving: a gateway consistent-hashes stream sessions
// across a fleet of vrserve backends and live-migrates them on failure,
// breaker trips and scale events (DESIGN.md §13).
type (
	// Gateway fronts N serving backends behind the single-node session
	// HTTP surface; cmd/vrgate is its command-line wrapper.
	Gateway = shard.Gateway
	// GatewayConfig parameterizes a Gateway (backends, hash-ring virtual
	// nodes, health probing, node breaker, proxy timeout).
	GatewayConfig = shard.Config
	// GatewayClient is a minimal client for the session surface, usable
	// against a Gateway or a single backend alike.
	GatewayClient = shard.Client
	// HashRing is the consistent-hash ring placing session keys on nodes.
	HashRing = shard.Ring
	// NodeStatus is one backend's health, breaker and load state.
	NodeStatus = shard.NodeStatus
	// LoadInfo is a backend's /healthz load report (sessions, queue
	// depth, breaker state, admission headroom, draining flag).
	LoadInfo = serve.LoadInfo
)

// Online per-stream adaptation: each session fine-tunes a private clone of
// NN-S on pseudo-labels harvested from its own NN-L anchor segmentations,
// strictly in serving idle gaps, promoting weights only when they beat the
// serving set and rolling back on drift regression (DESIGN.md §15).
type (
	// Adapter is one session's online-adaptation state: the pseudo-label
	// ring, background trainer, promotion mailbox and rolling drift monitor.
	Adapter = adapt.Adapter
	// AdaptConfig tunes an Adapter. ServeConfig.Adapt takes one as the
	// per-session tuning template (the server fills the wiring fields).
	AdaptConfig = adapt.Config
	// AdaptExample is one harvested (anchor luma, NN-L mask) pseudo-label.
	AdaptExample = adapt.Example
	// AdaptPromotion is one staged weight swap, picked up by the serving
	// layer at the next safe (chunk) boundary.
	AdaptPromotion = adapt.Promotion
)

// NewAdapter starts a session adapter and its background trainer; a Server
// with ServeConfig.Adapt non-nil constructs one per session internally, so
// this is only needed when embedding the tier in a custom scheduler.
func NewAdapter(cfg AdaptConfig) (*Adapter, error) { return adapt.New(cfg) }

// AdaptedFingerprint derives the content-cache fingerprint of a session
// serving adapted weights from its base-model fingerprint: adapting
// sessions never share cached masks with base-model sessions or with each
// other, at any weights version.
func AdaptedFingerprint(base uint64, session string, version uint64) uint64 {
	return contentcache.AdaptedFingerprint(base, session, version)
}

// NewGateway builds a sharding gateway over the configured backends and
// starts its health prober.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return shard.NewGateway(cfg) }

// NewHashRing builds a consistent-hash ring with the given virtual-node
// count per backend (0 picks the default).
func NewHashRing(vnodes int) *HashRing { return shard.NewRing(vnodes) }

// Simulator types.
type (
	// SimParams bundles the SoC model configuration (Table II defaults).
	SimParams = sim.Params
	// SimReport is one scheme's simulated performance and energy.
	SimReport = sim.Report
	// Scheme selects the simulated pipeline.
	Scheme = sim.Scheme
	// Workload is the simulator-facing description of an encoded video.
	Workload = sim.Workload
	// SimTrace records unit-occupancy events of a simulated run.
	SimTrace = sim.Trace
)

// Simulated schemes.
const (
	SchemeOSVOS          = sim.SchemeOSVOS
	SchemeFAVOS          = sim.SchemeFAVOS
	SchemeDFF            = sim.SchemeDFF
	SchemeEuphrates2     = sim.SchemeEuphrates2
	SchemeEuphrates4     = sim.SchemeEuphrates4
	SchemeVRDANNSerial   = sim.SchemeVRDANNSerial
	SchemeVRDANNParallel = sim.SchemeVRDANNParallel
)

// Frame types.
const (
	IFrame = codec.IFrame
	PFrame = codec.PFrame
	BFrame = codec.BFrame
)

// SuiteProfiles is the 20-sequence DAVIS-like benchmark suite.
var SuiteProfiles = video.SuiteProfiles

// DetectionProfiles is the speed-classed VID-like detection suite.
var DetectionProfiles = video.DetectionProfiles

// Generate renders a synthetic scene with exact ground truth.
func Generate(spec SceneSpec) *Video { return video.Generate(spec) }

// MakeSequence renders one benchmark sequence at the given geometry.
func MakeSequence(p SeqProfile, w, h, frames int) *Video { return video.MakeSequence(p, w, h, frames) }

// MakeSuite renders the whole 20-sequence benchmark suite.
func MakeSuite(w, h, frames int) []*Video { return video.MakeSuite(w, h, frames) }

// MakeTrainingSet renders the held-out training sequences.
func MakeTrainingSet(w, h, frames int) []*Video { return video.MakeTrainingSet(w, h, frames) }

// MakeDetectionSuite renders the detection sequences.
func MakeDetectionSuite(w, h, frames int) []*Video { return video.MakeDetectionSuite(w, h, frames) }

// Concat joins two sequences of identical geometry (a hard scene cut); the
// encoder detects the cut and refreshes with an I-frame.
func Concat(a, b *Video) *Video { return video.Concat(a, b) }

// DefaultEncoderConfig returns the default encoder settings (H.265-like
// 8×8 blocks, auto B ratio, auto search interval).
func DefaultEncoderConfig() EncoderConfig { return codec.DefaultConfig() }

// Encode compresses a video.
func Encode(v *Video, cfg EncoderConfig) (*Stream, error) { return codec.Encode(v, cfg) }

// Decode fully decodes a bitstream (all pixels).
func Decode(data []byte) (*DecodeResult, error) { return codec.Decode(data, codec.DecodeFull) }

// DecodeSideInfo decodes I/P pixels and B-frame motion vectors only — the
// decoder contract VR-DANN exploits.
func DecodeSideInfo(data []byte) (*DecodeResult, error) {
	return codec.Decode(data, codec.DecodeSideInfo)
}

// NewOracleSegmenter returns a calibrated stand-in for a large segmentation
// network: ground truth perturbed by boundary noise of the given strength.
func NewOracleSegmenter(label string, gt []*Mask, strength float64, radius int, seed int64) Segmenter {
	return segment.NewOracle(label, gt, strength, radius, seed)
}

// NewOracleBoxDetector is the detection analogue of NewOracleSegmenter.
func NewOracleBoxDetector(label string, gt []Rect, jitter float64, seed int64) BoxDetector {
	return &baseline.OracleBoxDetector{Label: label, GT: gt, Jitter: jitter, Seed: seed}
}

// DefaultTrainConfig returns the paper's NN-S training setup (2 epochs).
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// TrainRefiner trains NN-S on the given videos per Sec III-B.
func TrainRefiner(videos []*Video, enc EncoderConfig, tc TrainConfig) (*RefineNet, error) {
	return core.TrainNNS(videos, enc, tc)
}

// DefaultNNLTrainConfig returns the default NN-L training setup.
func DefaultNNLTrainConfig() NNLTrainConfig { return core.DefaultNNLTrainConfig() }

// TrainSegmenter trains the pure-Go NN-L from scratch on raw frames and
// ground truth. Combined with TrainRefiner this yields the fully learned
// pipeline with no oracle anywhere.
func TrainSegmenter(videos []*Video, tc NNLTrainConfig) (*FCN, error) {
	return core.TrainNNL(videos, tc)
}

// NewNetSegmenter wraps a trained network as the pipeline's NN-L.
func NewNetSegmenter(label string, net *FCN) Segmenter {
	return &segment.NetSegmenter{Label: label, Net: net}
}

// NewPipeline builds a VR-DANN pipeline with refinement enabled; pass
// WithWorkers to enable the overlapped execution mode.
func NewPipeline(nnl Segmenter, nns *RefineNet, opts ...PipelineOption) *Pipeline {
	return core.New(nnl, nns, opts...)
}

// EvaluateSegmentation returns the mean boundary F-Score and region IoU (J)
// of predictions against ground truth.
func EvaluateSegmentation(pred, gt []*Mask) (f, j float64) {
	var s segment.SeqScore
	for i := range pred {
		s.Add(pred[i], gt[i])
	}
	return s.Mean()
}

// EvaluateDetection returns average precision at the given IoU threshold.
func EvaluateDetection(preds [][]Detection, gtBoxes [][]Rect, iouThresh float64) float64 {
	return detect.AP(preds, gtBoxes, iouThresh)
}

// GTBoxes adapts a video's ground-truth boxes for EvaluateDetection.
func GTBoxes(v *Video) [][]Rect { return detect.GTBoxes(v) }

// DefaultSimParams returns the Table II SoC configuration.
func DefaultSimParams() SimParams { return sim.DefaultParams() }

// NewWorkload extracts a simulator workload from decoder output, scaled to
// the target resolution (use the paper's 854×480 for headline numbers).
func NewWorkload(name string, dec *DecodeResult, p SimParams, targetW, targetH int) Workload {
	return sim.FromDecode(name, dec, p.Agent, targetW, targetH)
}

// Simulate runs one scheme over a workload on the SoC model.
func Simulate(p SimParams, scheme Scheme, w Workload) SimReport {
	return sim.New(p).Run(scheme, w)
}

// SimulateTraced is Simulate with an execution-timeline trace (the
// tool-side equivalent of the paper's Fig 7).
func SimulateTraced(p SimParams, scheme Scheme, w Workload) (SimReport, *SimTrace) {
	return sim.New(p).RunTraced(scheme, w)
}

// SimulateRealtime runs a scheme against a live camera source at the given
// frame rate and reports per-frame latency and deadline behaviour.
func SimulateRealtime(p SimParams, scheme Scheme, w Workload, sourceFPS float64) sim.RealtimeReport {
	return sim.New(p).RunRealtime(scheme, w, sourceFPS)
}

// --- Interchange I/O (PGM, Y4M, overlays) ---

// WritePGM writes one frame as binary PGM (P5).
func WritePGM(w io.Writer, f *Frame) error { return vidio.WritePGM(w, f) }

// ReadPGM parses a binary PGM (P5) image.
func ReadPGM(r io.Reader) (*Frame, error) { return vidio.ReadPGM(r) }

// WriteMaskPGM writes a segmentation mask as a black/white PGM.
func WriteMaskPGM(w io.Writer, m *Mask) error { return vidio.WriteMaskPGM(w, m) }

// ReadMaskPGM parses a PGM into a mask (pixels ≥ 128 are foreground).
func ReadMaskPGM(r io.Reader) (*Mask, error) { return vidio.ReadMaskPGM(r) }

// Overlay renders a frame with the mask boundary marked and the background
// dimmed, for visual inspection.
func Overlay(f *Frame, m *Mask) *Frame { return vidio.Overlay(f, m) }

// WriteY4M writes a sequence as a mono-color-space YUV4MPEG2 stream.
func WriteY4M(w io.Writer, v *Video) error { return vidio.WriteY4M(w, v) }

// ReadY4M parses a mono-color-space YUV4MPEG2 stream, e.g. real grayscale
// footage converted with standard tools.
func ReadY4M(r io.Reader) (*Video, error) { return vidio.ReadY4M(r) }
