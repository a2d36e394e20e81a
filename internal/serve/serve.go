// Package serve is the multi-stream serving layer over the VR-DANN
// pipeline: the software counterpart of one accelerator board multiplexing
// many camera feeds. The paper's agent unit (Sec IV) keeps a single stream
// real-time; decoder-assisted analytics only pays for itself when many
// concurrent streams share that unit, so this package adds the three things
// a shared accelerator needs and the single-stream pipeline does not have —
// a session registry (per-stream decoder + pipeline state with the pruned
// reference window), admission control (bounded concurrent streams and
// per-stream frame queues with an explicit reject-vs-wait policy), and a
// shared scheduler that multiplexes every admitted session onto one bounded
// worker budget, one frame per dispatch, so streams progress round-robin
// and no session can starve the others.
//
// Serving is built on core.StreamEngine, the same frame-step code the
// serial single-stream loop runs, so a mask served under full multi-stream
// load is bit-identical to the same frame in a standalone run — the
// serving layer adds scheduling, never arithmetic.
//
// Under overload the scheduler sheds load the way the paper's deadline
// analysis (Sec VI, the 33 ms frame budget) prescribes: B-frames past
// their per-chunk budget are dropped (their bitstream side info is still
// consumed; the entropy coder must advance), while I/P anchors are always
// computed — they are the references every later frame depends on.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vrdann/internal/adapt"
	"vrdann/internal/contentcache"
	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/par"
	"vrdann/internal/qos"
	"vrdann/internal/segment"
	"vrdann/internal/tensor"
)

// Admission and lifecycle errors.
var (
	// ErrAdmission rejects a new session: the server is at MaxSessions.
	ErrAdmission = errors.New("serve: session limit reached")
	// ErrQueueFull rejects a chunk under the Reject policy: the session's
	// frame queue cannot take it.
	ErrQueueFull = errors.New("serve: session frame queue full")
	// ErrServerClosed rejects work on a draining or closed server.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrSessionClosed rejects chunks submitted to a closed session.
	ErrSessionClosed = errors.New("serve: session closed")
	// ErrSessionBroken rejects chunks while a session's circuit breaker is
	// open: too many consecutive chunk failures, back off and retry.
	ErrSessionBroken = errors.New("serve: session circuit breaker open")
)

// OverflowPolicy selects what Submit does when a session's frame queue is
// full.
type OverflowPolicy int

const (
	// Reject fails the Submit with ErrQueueFull immediately (shed at the
	// edge; the caller decides whether to retry).
	Reject OverflowPolicy = iota
	// Wait blocks the Submit until queue space frees or its context fires
	// (backpressure propagates to the producer).
	Wait
)

// Config parameterizes a Server.
type Config struct {
	// MaxSessions bounds concurrently admitted sessions; Open past the
	// bound returns ErrAdmission. Default 16.
	MaxSessions int
	// MaxQueuedFrames bounds, per session, the frames admitted but not yet
	// served. A chunk that would exceed the bound is rejected or waits per
	// Policy — except when the session is empty, where one oversized chunk
	// is always accepted (otherwise a chunk larger than the bound could
	// never be served). Default 256.
	MaxQueuedFrames int
	// Workers is the shared worker budget every session is multiplexed
	// onto. Default: one per available CPU.
	Workers int
	// Policy selects reject-vs-wait when a session queue is full.
	Policy OverflowPolicy
	// FrameBudget is the deadline-based drop policy: when a chunk has been
	// in the server longer than this, its remaining B-frames are dropped
	// (anchors are always computed). Zero disables dropping — the
	// offline/archival mode.
	FrameBudget time.Duration
	// NewSegmenter builds the NN-L for one session. Required. Called once
	// per Open with the session id; per-session segmenters let every
	// stream carry its own model state.
	NewSegmenter func(id string) segment.Segmenter
	// NNS, when non-nil, enables NN-S refinement of reconstructed B-frames.
	// Each session clones it, so one trained network serves all streams.
	NNS *nn.RefineNet
	// QuantNNS, when non-nil, serves NN-S refinement on the int8 execution
	// tier (nn.QuantRefineNet) instead of the float NNS. Accuracy is gated
	// on F-score against the float path, not bit identity.
	QuantNNS *nn.QuantRefineNet
	// SkipResidual enables residual-driven sparsity: B-frames whose decoded
	// residual energy is clean everywhere reuse the MV reconstruction, and
	// partially dirty frames refine only the dirty rectangle. See
	// core.Pipeline.SkipResidual.
	SkipResidual bool
	// SkipThreshold is the per-block residual-energy cutoff of SkipResidual.
	SkipThreshold int
	// Obs, when non-nil, aggregates server-wide counters and gauges
	// (sessions, pending frames, chunks, drops, rejects). Each session
	// additionally always has its own collector.
	Obs *obs.Collector
	// BreakerThreshold is the per-session circuit breaker: this many
	// consecutive failed chunks (malformed input or internal error;
	// cancellations never count) trip the breaker, which rejects submits
	// with ErrSessionBroken for a backoff window. 0 selects the default
	// (3); negative disables the breaker.
	BreakerThreshold int
	// BreakerBackoff is the rejection window after the first trip; it
	// doubles on each successive trip without an intervening success.
	// Default 1s.
	BreakerBackoff time.Duration
	// BreakerMaxTrips force-closes the session (draining, queued chunks
	// failed with ErrSessionBroken) when the breaker trips more than this
	// many times without an intervening success. Default 3.
	BreakerMaxTrips int
	// MaxChunkBytes bounds one HTTP-posted chunk body; oversized posts get
	// 413. A DoS guard, not a protocol limit. Default 64 MiB.
	MaxChunkBytes int64
	// MaxBatch is ignored: every session refines on its own worker.
	//
	// Deprecated: ignored. Kept only because bench/fleet.go, the frozen
	// benchmark driver, still sets it.
	MaxBatch int
	// CacheBytes enables the shared content-addressed mask cache with this
	// byte budget: masks computed by the first session on a piece of content
	// are served to every later session submitting bit-identical chunks, so
	// fleet cost approaches O(distinct contents) instead of O(sessions).
	// Requires NewSegmenter to be content-deterministic — sessions serving
	// equal bytes must receive segmenters that compute equal masks (true of
	// ThresholdSegmenter always, and of per-content oracles). Zero disables
	// the cache (the default).
	CacheBytes int64
	// Cache, when non-nil, supplies an externally constructed cache instead
	// of CacheBytes — e.g. one cache shared by several servers. The caller
	// must then ensure all sharing servers run identical models (the model
	// fingerprint covers segmenter names and skip config, not weights).
	Cache *contentcache.Cache
	// QoS, when non-nil, enables the adaptive degradation ladder
	// (internal/qos): each B-frame is served on a rung chosen from queued
	// frames per worker and the session's class, and a closed loop
	// stretches full-rung promotion spacing as load rises. Nil keeps the
	// pre-ladder policy — binary FrameBudget shedding only, bit-identical
	// serving.
	QoS *qos.Config
	// Adapt, when non-nil (and NNS is set), enables the online per-stream
	// adaptation tier (internal/adapt): every session gets a background
	// trainer that fine-tunes a private NN-S clone on pseudo-labels
	// harvested from its own NN-L anchor masks, promoting improved weights
	// at chunk boundaries and rolling back on drift regression. The value is
	// a tuning template: the server fills Base, Idle, Quantize and the
	// collectors per session. Nil keeps serving bit-identical to a server
	// without the tier.
	Adapt *adapt.Config
}

// withDefaults resolves unset fields.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.MaxQueuedFrames <= 0 {
		c.MaxQueuedFrames = 256
	}
	if c.Workers <= 0 {
		c.Workers = par.EffectiveWorkers(runtime.GOMAXPROCS(0))
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = time.Second
	}
	if c.BreakerMaxTrips <= 0 {
		c.BreakerMaxTrips = 3
	}
	if c.MaxChunkBytes <= 0 {
		c.MaxChunkBytes = 64 << 20
	}
	return c
}

// Server multiplexes many video-stream sessions onto one bounded worker
// pool. All methods are safe for concurrent use.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// runq carries sessions with work to the workers. Capacity MaxSessions
	// plus the one-entry-per-session invariant (Session.queued) makes every
	// send non-blocking under srv.mu.
	runq chan *Session
	// cache, when non-nil, is the shared content-addressed mask cache
	// (cfg.Cache, or built from cfg.CacheBytes).
	cache *contentcache.Cache
	// qosCtl, when non-nil, is the QoS ladder controller (cfg.QoS).
	qosCtl *qos.Controller
	// pendingFrames tracks frames admitted but not yet resolved across all
	// sessions — the queue-depth input the ladder reads per frame, kept as
	// an atomic so the selector never takes srv.mu.
	pendingFrames atomic.Int64
	// adaptCalib is the fixed sandwich-alphabet calibration adapted weights
	// are re-quantized against (built once when Adapt and QuantNNS are both
	// configured, so every promotion compiles on the same input grid).
	adaptCalib []*tensor.Tensor

	mu       sync.Mutex
	cond     *sync.Cond // work retired, queue space freed, session retired
	sessions map[string]*Session
	nextID   int
	draining bool
	// quiesced refuses new sessions while continuing to serve admitted
	// ones — the scale-down drain hook a gateway uses to bleed a node dry
	// before removing it.
	quiesced bool
}

// NewServer starts a server and its worker pool.
func NewServer(cfg Config) (*Server, error) {
	if cfg.NewSegmenter == nil {
		return nil, errors.New("serve: Config.NewSegmenter is required")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	srv := &Server{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		runq:     make(chan *Session, cfg.MaxSessions),
		sessions: make(map[string]*Session),
	}
	srv.cond = sync.NewCond(&srv.mu)
	if cfg.QoS != nil {
		srv.qosCtl = qos.NewController(*cfg.QoS)
	}
	srv.cache = cfg.Cache
	if srv.cache == nil && cfg.CacheBytes > 0 {
		srv.cache = contentcache.New(contentcache.Config{MaxBytes: cfg.CacheBytes, Obs: cfg.Obs})
	}
	if cfg.Adapt != nil && cfg.QuantNNS != nil {
		// One calibration set for every session's re-quantizations: promoted
		// weights compile against the same sandwich-alphabet grid the serving
		// tier calibrates the base model on, so the only variable across a
		// promotion is the weights themselves.
		srv.adaptCalib = adapt.SandwichCalibration(64, 48, 4, 1)
	}
	for i := 0; i < cfg.Workers; i++ {
		srv.wg.Add(1)
		go srv.worker()
	}
	return srv, nil
}

// Open admits a new premium-class session, or returns ErrAdmission at the
// session cap and ErrServerClosed on a draining server.
func (srv *Server) Open() (*Session, error) { return srv.OpenClass(qos.ClassPremium) }

// OpenClass is Open with an explicit QoS class. The class only matters on a
// server with the ladder enabled (Config.QoS), where free sessions degrade
// at a fraction of the pressure premium ones tolerate; elsewhere it is
// recorded but inert.
func (srv *Server) OpenClass(class qos.Class) (*Session, error) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.draining || srv.quiesced {
		return nil, ErrServerClosed
	}
	if len(srv.sessions) >= srv.cfg.MaxSessions {
		srv.cfg.Obs.Count(obs.CounterRejects, 1)
		return nil, ErrAdmission
	}
	srv.nextID++
	id := fmt.Sprintf("s%04d", srv.nextID)
	col := obs.New()
	s := &Session{ID: id, srv: srv, obs: col, state: stateActive, class: class}
	s.pipe = &core.StreamingPipeline{
		NNL:           srv.cfg.NewSegmenter(id),
		NNS:           srv.cfg.NNS,
		Quant:         srv.cfg.QuantNNS,
		Refine:        srv.cfg.NNS != nil || srv.cfg.QuantNNS != nil,
		SkipResidual:  srv.cfg.SkipResidual,
		SkipThreshold: srv.cfg.SkipThreshold,
		Workers:       1, // the shared pool is the parallelism; engines stay serial
		Obs:           col,
	}
	if srv.cache != nil {
		// The model fingerprint keys cache entries alongside the chunk
		// digest: segmenter identity plus everything in this server's config
		// that shapes a mask. Config is per-server, so within one server
		// only the segmenter name varies.
		s.modelFP = contentcache.Fingerprint(
			s.pipe.NNL.Name(),
			fmt.Sprintf("nns=%t quant=%t skip=%t thr=%d",
				srv.cfg.NNS != nil, srv.cfg.QuantNNS != nil,
				srv.cfg.SkipResidual, srv.cfg.SkipThreshold),
		)
		s.pipe.MaskSource = s.cachedMask
	}
	if srv.cfg.Adapt != nil && srv.cfg.NNS != nil {
		// Each session adapts privately: its own trainer, its own pseudo-label
		// ring, its own weight versions. The configured value is a template;
		// the serving-side hooks are filled here.
		ac := *srv.cfg.Adapt
		ac.Base = srv.cfg.NNS
		ac.Idle = srv.trainerIdle
		ac.Obs = col
		ac.ServerObs = srv.cfg.Obs
		if srv.cfg.QuantNNS != nil && ac.Quantize == nil {
			ac.Quantize = func(n *nn.RefineNet) (*nn.QuantRefineNet, error) {
				return nn.NewQuantRefineNet(n, srv.adaptCalib)
			}
		}
		ad, err := adapt.New(ac)
		if err != nil {
			return nil, fmt.Errorf("serve: session adapter: %w", err)
		}
		s.adapter = ad
		if srv.cache != nil {
			// Cache isolation from the first frame: the session's weights can
			// change underneath a fill, so even at version 0 it must key its
			// entries away from the base model's (and every other adapting
			// session's) keyspace.
			s.baseFP = s.modelFP
			s.modelFP = contentcache.AdaptedFingerprint(s.baseFP, id, 0)
		}
	}
	srv.sessions[id] = s
	srv.cfg.Obs.GaugeSet(obs.GaugeSessions, int64(len(srv.sessions)))
	return s, nil
}

// Session looks up an admitted session by id.
func (srv *Server) Session(id string) (*Session, bool) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	s, ok := srv.sessions[id]
	return s, ok
}

// SessionCount reports the number of admitted sessions.
func (srv *Server) SessionCount() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

// Obs returns the server-wide collector (nil if none was configured).
func (srv *Server) Obs() *obs.Collector { return srv.cfg.Obs }

// LoadInfo is the JSON load report behind /healthz: enough signal for a
// gateway to health-score a node (place new sessions, drain a loaded or
// flapping one) instead of treating health as a binary liveness bit.
type LoadInfo struct {
	// Status is "ok" on a serving node and "draining" on one that refuses
	// new sessions (quiesced or closing).
	Status string `json:"status"`
	// Sessions is the number of admitted sessions.
	Sessions int `json:"sessions"`
	// MaxSessions is the admission cap.
	MaxSessions int `json:"maxSessions"`
	// AdmissionHeadroom is how many more sessions the node would admit
	// right now (0 on a draining node regardless of occupancy).
	AdmissionHeadroom int `json:"admissionHeadroom"`
	// PendingFrames is the queue depth: frames admitted but not yet served,
	// summed over all sessions.
	PendingFrames int `json:"pendingFrames"`
	// BreakerOpen counts sessions whose circuit breaker is currently open —
	// a flapping-node signal at session granularity.
	BreakerOpen int `json:"breakerOpen"`
	// Workers is the node's shared worker budget.
	Workers int `json:"workers"`
	// Draining is true when the node refuses new sessions.
	Draining bool `json:"draining"`
}

// Load snapshots the server's load report.
func (srv *Server) Load() LoadInfo {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	li := LoadInfo{
		Status:      "ok",
		Sessions:    len(srv.sessions),
		MaxSessions: srv.cfg.MaxSessions,
		Workers:     srv.cfg.Workers,
		Draining:    srv.draining || srv.quiesced,
	}
	now := time.Now()
	for _, s := range srv.sessions {
		li.PendingFrames += s.pending
		if s.brokenUntil.After(now) {
			li.BreakerOpen++
		}
	}
	if !li.Draining {
		if li.AdmissionHeadroom = li.MaxSessions - li.Sessions; li.AdmissionHeadroom < 0 {
			li.AdmissionHeadroom = 0
		}
	} else {
		li.Status = "draining"
	}
	return li
}

// trainerIdle is the adaptation tier's idleness gate: true only when no
// frame is admitted-but-unresolved anywhere and no session is waiting for a
// worker. Trainers re-check it before every fine-tune step, so serving work
// arriving mid-burst stops training at the next step boundary.
func (srv *Server) trainerIdle() bool {
	return srv.pendingFrames.Load() == 0 && len(srv.runq) == 0
}

// qosLoad snapshots the ladder's load inputs lock-free: server-wide queue
// depth and the worker budget it is normalized by. Read on every B-frame,
// so it must stay cheap.
func (srv *Server) qosLoad() qos.Load {
	return qos.Load{QueueDepth: int(srv.pendingFrames.Load()), Workers: srv.cfg.Workers}
}

// Quiesce puts the server in scale-down drain: Open returns ErrServerClosed
// while already-admitted sessions keep being served, and the load report
// flips to draining so a gateway stops placing sessions here. Resume undoes
// it; Close supersedes it.
func (srv *Server) Quiesce() {
	srv.mu.Lock()
	srv.quiesced = true
	srv.mu.Unlock()
}

// Resume lifts a Quiesce, re-admitting new sessions (no-op on a closing
// server — Close is one-way).
func (srv *Server) Resume() {
	srv.mu.Lock()
	srv.quiesced = false
	srv.mu.Unlock()
}

// Close drains the server: no new sessions or chunks are admitted, every
// queued chunk is served, sessions retire as they empty, and the worker
// pool exits. If ctx fires first, in-flight work is cancelled — pending
// chunks fail with the context error, the drain still completes cleanly
// (no goroutine outlives Close), and ctx.Err() is returned.
func (srv *Server) Close(ctx context.Context) error {
	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		return ErrServerClosed
	}
	srv.draining = true
	for _, s := range srv.sessions {
		if s.state == stateActive {
			s.state = stateDraining
		}
		s.maybeRetireLocked()
	}
	// A fired deadline converts the graceful drain into a forced one: the
	// server context makes every remaining engine step fail fast, chunks
	// complete exceptionally, sessions retire, and the wait below returns.
	stopForce := context.AfterFunc(ctx, func() {
		srv.cancel()
		srv.mu.Lock()
		srv.cond.Broadcast()
		srv.mu.Unlock()
	})
	defer stopForce()
	for len(srv.sessions) > 0 {
		srv.cond.Wait()
	}
	srv.mu.Unlock()
	// No sessions remain and none can be admitted, so nothing can enqueue:
	// closing the run queue releases the workers.
	close(srv.runq)
	srv.wg.Wait()
	srv.cancel()
	return ctx.Err()
}
