package main

import (
	"context"
	"fmt"
	"time"

	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
	"vrdann/internal/video"
)

// env is what a workload's set-up builds its system from: the models and
// the seeded clips. Only clip bytes ever reach the program under test.
type env struct {
	m     *models
	clips []clip
}

// newEnv loads the models and generates the first n clip slots of a seed.
// It is the shared part of every workload's set-up time.
func newEnv(seed int64, n int) (*env, error) {
	m, err := loadModels()
	if err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	clips, err := makeClips(seed, n)
	if err != nil {
		return nil, err
	}
	return &env{m: m, clips: clips}, nil
}

// limit bounds one run of an instance: a duration for the timed window, or
// a number of passes over the content for the warm/verification pass.
type limit struct {
	d      time.Duration
	passes int
}

func (l limit) window() bool { return l.passes == 0 }

// done reports whether a driver that began at start and has sent n chunks
// of a perPass-chunk content cycle has reached the limit.
func (l limit) done(start time.Time, n, perPass int) bool {
	if l.window() {
		return time.Since(start) >= l.d
	}
	return n >= l.passes*perPass
}

// sample is what one run of a workload observed.
type sample struct {
	attempted, failed int // frames
	elapsed           time.Duration
	fps               float64   // frames served correctly per second of the window
	latMS             []float64 // one per served frame (per chunk on gate-hop)
	doneS             []float64 // when each latency sample completed, seconds into the window
	perSample         int       // frames one latency sample stands for (0 means 1)
	diag              map[string]float64
}

func newSample() *sample { return &sample{diag: make(map[string]float64)} }

// frame records one served frame: whether its mask matched the reference,
// its latency, and when in the window its mask was ready.
func (s *sample) frame(ok bool, lat, at time.Duration) {
	s.attempted++
	if !ok {
		s.failed++
	}
	s.timing(lat, at)
}

func (s *sample) timing(lat, at time.Duration) {
	s.latMS = append(s.latMS, float64(lat)/float64(time.Millisecond))
	s.doneS = append(s.doneS, at.Seconds())
}

// chunk records a served chunk: each frame's mask against the reference
// clip (first is the session display index of the chunk's first frame) and
// its timing, and whatever an error or a drop kept back as lost.
func (s *sample) chunk(ref *reference, clip, first int, res []serve.FrameResult, err error, timing func(serve.FrameResult) (lat, at time.Duration)) {
	got := 0
	if err == nil {
		for _, r := range res {
			if r.Dropped {
				continue
			}
			lat, at := timing(r)
			s.frame(ref.ok(clip, r.Display-first, r.Mask), lat, at)
			got++
		}
	}
	s.lost(chunkFrames - got)
}

// lost records n frames that were never served (error, reject, drop).
func (s *sample) lost(n int) {
	s.attempted += n
	s.failed += n
}

// finish closes the window that began at start.
func (s *sample) finish(start time.Time) {
	s.elapsed = time.Since(start)
	s.fps = float64(s.attempted-s.failed) / s.elapsed.Seconds()
}

func (s *sample) merge(o *sample) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.latMS = append(s.latMS, o.latMS...)
	s.doneS = append(s.doneS, o.doneS...)
	s.perSample = o.perSample
}

// instance is one built system under test.
type instance interface {
	// run drives the measured path until the limit and checks every served
	// mask against the reference.
	run(ctx context.Context, ref *reference, lim limit) (*sample, error)
	// close stops everything open started and waits for it.
	close() error
}

// extraRunner is implemented by instances with side measurements taken
// after the gated window — diagnostics and per-layer numbers, never gated.
type extraRunner interface {
	extras(ctx context.Context, ref *reference, d time.Duration) (map[string]float64, error)
}

// workload is one fixed traffic mix. open is the tail of set-up: it builds
// the pipeline, server or gateway. A nil tracer builds the untraced system.
type workload struct {
	name   string
	why    string
	loop   string // "closed" or "open", with its client count or rate
	kind   pipeKind
	nclips int
	// floor is the lowest mean boundary F-score the content may score; a
	// model or reconstruction regression below it fails the run outright.
	floor float64
	open  func(e *env, tr *tracer) (instance, error)
}

var workloads = []*workload{
	{
		name: "solo-refine", kind: pipeRefine, nclips: 16, floor: 0.05,
		loop: "closed, 1 goroutine",
		why:  "float NN-S conv/GEMM path is >=85% of the work; NN-L, serve, batch, cache and shard do none",
		open: func(e *env, tr *tracer) (instance, error) { return openSolo(e, pipeRefine, tr).traceNNL(), nil },
	},
	{
		name: "solo-fcn", kind: pipeFCN, nclips: 16, floor: 0.8,
		loop: "closed, 1 goroutine",
		why:  "paper cost structure: FCN-32 NN-L is >=70% of the work, NN-S is int8 with residual skip",
		open: func(e *env, tr *tracer) (instance, error) { return openSolo(e, pipeFCN, tr).traceNNL(), nil },
	},
	{
		name: "fleet-open", kind: pipeFCN, nclips: clipsPerCam * camsHigh, floor: 0.8,
		loop: fmt.Sprintf("open, %d/%d/%d cameras at %d fps", camsLow, camsMid, camsHigh, cameraFPS),
		why:  "independent cameras on a schedule: serve admission, queueing and batch waits matter only here",
		open: openFleet,
	},
	{
		name: "vod-shared", kind: pipeFCN, nclips: vodContents * vodChunks, floor: 0.8,
		loop: fmt.Sprintf("closed, 2 goroutines x %d sessions", vodSessions/2),
		why:  "every timed lookup hits the content cache, so scheduler, side-info decode and cache reads are the work",
		open: openVOD,
	},
	{
		name: "gate-hop", kind: pipeRecon, nclips: 16, floor: 0.05,
		loop: "closed, 2 keep-alive HTTP clients",
		why:  "gateway proxying, HTTP and PGM encoding dominate; NN is 0 (Otsu NN-L, recon-only B-frames)",
		open: openGate,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tracedSegmenter times every NN-L call a session's engine makes. Spans
// hang under the chunk the session is serving.
type tracedSegmenter struct {
	segment.Segmenter
	tr   *tracer
	sess string
}

func (t *tracedSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	parent, chunk := t.tr.serving(t.sess)
	id := t.tr.begin("segment.nnl", parent, chunk)
	defer t.tr.end(id)
	return t.Segmenter.Segment(f, display)
}

// serveConfig is the serve.Config every serving workload starts from: the
// configuration's models, a server-wide collector for the existing obs
// counters, QoS ladder and adaptation off.
func serveConfig(k pipeKind, m *models, tr *tracer) serve.Config {
	f, q, skip := k.nnsFor(m)
	return serve.Config{
		NewSegmenter: func(id string) segment.Segmenter {
			if tr == nil {
				return k.newNNL(m)
			}
			return &tracedSegmenter{Segmenter: k.newNNL(m), tr: tr, sess: id}
		},
		NNS: f, QuantNNS: q, SkipResidual: skip, SkipThreshold: skipThreshold,
		Obs: obs.New(),
	}
}

// closeServer drains a server with a bounded wait.
func closeServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Close(ctx)
}

// counter reads one counter of a collector snapshot (0 when absent).
func counter(c *obs.Collector, ct obs.Counter) float64 {
	return float64(c.CounterValue(ct))
}
