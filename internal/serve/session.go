package serve

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vrdann/internal/adapt"
	"vrdann/internal/codec"
	"vrdann/internal/contentcache"
	"vrdann/internal/core"
	"vrdann/internal/obs"
	"vrdann/internal/qos"
	"vrdann/internal/video"
)

// sessionState is the session lifecycle: Active accepts chunks, Draining
// serves what it has and then retires, Closed is retired.
type sessionState int

const (
	stateActive sessionState = iota
	stateDraining
	stateClosed
)

// FrameResult is one served frame. Display counts from the start of the
// session (chunk frame counts accumulate), so a session is addressable as
// one continuous stream across chunk boundaries.
type FrameResult struct {
	Display int
	Type    codec.FrameType
	// Mask is the frame's segmentation; nil when the frame was dropped.
	Mask    *video.Mask
	Dropped bool
	// Step is the QoS ladder rung the frame was served on (qos.StepFull
	// for anchors, which are never degraded). On a server without the
	// ladder it is qos.StepRefine for served B-frames and qos.StepSkip for
	// budget-shed ones — the binary pre-ladder policy expressed in ladder
	// terms.
	Step qos.Step
	// Latency is chunk arrival to frame completion — queueing included,
	// which is the number a serving SLA is written against.
	Latency time.Duration
}

// Chunk is the ticket for one submitted bitstream chunk.
type Chunk struct {
	frames  int
	arrived time.Time
	arrT    time.Duration // session collector clock token at arrival

	// digest content-addresses the chunk bytes for the shared mask cache
	// (codec.ChunkDigest); zero unless the server has a cache.
	digest uint64

	data    []byte
	results []FrameResult // decode order while serving; display order at completion
	err     error
	done    chan struct{}
}

// Frames reports how many frames the chunk carries.
func (c *Chunk) Frames() int { return c.frames }

// Wait blocks until the chunk is fully served (or failed) or ctx fires.
// On success the results are in display order.
func (c *Chunk) Wait(ctx context.Context) ([]FrameResult, error) {
	select {
	case <-c.done:
		return c.results, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Session is one admitted video stream: its decoder, its streaming-pipeline
// state (reference window, refiner), its frame queue and its metrics
// collector. Chunks submitted to a session are served strictly in order.
type Session struct {
	ID  string
	srv *Server
	obs *obs.Collector // per-session collector; never nil

	pipe *core.StreamingPipeline
	// modelFP fingerprints the mask-shaping configuration for content-cache
	// keys (contentcache.Fingerprint). Immutable after Open on a server
	// without the adaptation tier; on an adapting session it is rebuilt —
	// only by the worker that holds running, at chunk boundaries — from
	// baseFP and the promoted weights version (contentcache.AdaptedFingerprint).
	modelFP uint64
	// baseFP is the base-model fingerprint an adapting session derives its
	// versioned modelFP from. Immutable after Open; zero without adaptation.
	baseFP uint64
	// adapter, when non-nil, is the session's online-adaptation state
	// (internal/adapt). Its handle is immutable after Open (cleared only at
	// retirement under srv.mu); the Adapter itself is safe for the worker's
	// concurrent Harvest/ObserveDrift/TakePromoted calls.
	adapter *adapt.Adapter
	// class is the session's QoS tier (see Config.QoS). Immutable after
	// Open.
	class qos.Class

	// Guarded by srv.mu.
	state   sessionState
	w, h    int      // geometry pinned by the first chunk
	queue   []*Chunk // submitted, not yet started
	cur     *Chunk   // chunk being served
	pending int      // frames admitted but not yet resolved
	queued  bool     // session is in srv.runq
	running bool     // a worker is stepping this session
	// Circuit-breaker state (also guarded by srv.mu): consecutive failed
	// chunks, breaker trips since the last success, and the end of the
	// current backoff window during which Submit bounces.
	consecFails int
	trips       int
	brokenUntil time.Time

	// Worker-only state: touched exclusively by the goroutine that holds
	// running, so it needs no lock. The decoder is allocated once and Reset
	// per chunk — the long-lived-session path of codec.StreamDecoder.
	dec  *codec.StreamDecoder
	eng  *core.StreamEngine
	base int // display offset of cur: frames resolved in earlier chunks
	// Open single-flight fill this session owes the content cache for the
	// frame currently being stepped; resolved (Commit or Abandon) before the
	// step returns.
	fill *contentcache.Fill
	// lastStep is the ladder rung chosen for the frame currently being
	// stepped (StepFull for anchors; overwritten by the selector for
	// B-frames).
	lastStep qos.Step
	// lastAnchor is the most recent anchor mask served, the reference the
	// drift monitor scores refined B-frames against.
	lastAnchor *video.Mask
	// Last residual-skip counter values already mirrored into the
	// server-wide collector (see Session.mirrorQuantCounters).
	quantSkipped, quantDirty, quantUnknown int64
}

// Metrics snapshots the session's collector: per-stage latency histograms
// (nn-l, reconstruct, nn-s, serve/frame), gauges and counters.
func (s *Session) Metrics() *obs.Report { return s.obs.Snapshot() }

// Submit queues one independently encoded, GOP-aligned bitstream chunk.
// The header is validated up front (malformed chunks never enter the
// queue) and the frame count is charged against the session's queue bound:
// past it, Submit rejects (Reject policy) or blocks for space (Wait
// policy). The returned ticket resolves when every frame of the chunk has
// been served or dropped.
func (s *Session) Submit(ctx context.Context, data []byte) (*Chunk, error) {
	info, err := codec.ProbeStream(data)
	if err != nil {
		return nil, fmt.Errorf("serve: bad chunk: %w", err)
	}
	srv := s.srv
	var digest uint64
	if srv.cache != nil {
		// Hash outside the lock — O(len(data)). Corrupt bytes hash to their
		// own keys, so a poisoned copy of popular content cannot alias it.
		digest = codec.ChunkDigest(data)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if s.w == 0 && s.h == 0 {
		s.w, s.h = info.W, info.H
	} else if info.W != s.w || info.H != s.h {
		return nil, fmt.Errorf("serve: chunk geometry %dx%d differs from session %dx%d",
			info.W, info.H, s.w, s.h)
	}
	var stopWake func() bool
	for {
		if srv.draining {
			return nil, ErrServerClosed
		}
		if s.state != stateActive {
			return nil, ErrSessionClosed
		}
		if wait := time.Until(s.brokenUntil); wait > 0 {
			// Breaker open: bounce immediately rather than block — the
			// client should back off, not camp on queue space.
			s.obs.Count(obs.CounterRejects, 1)
			srv.cfg.Obs.Count(obs.CounterRejects, 1)
			return nil, fmt.Errorf("%w: retry in %v", ErrSessionBroken, wait.Round(time.Millisecond))
		}
		// An empty session always accepts one chunk, even oversized —
		// otherwise a chunk larger than the bound could never be served.
		if s.pending == 0 || s.pending+info.Frames <= srv.cfg.MaxQueuedFrames {
			break
		}
		if srv.cfg.Policy == Reject {
			s.obs.Count(obs.CounterRejects, 1)
			srv.cfg.Obs.Count(obs.CounterRejects, 1)
			return nil, ErrQueueFull
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if stopWake == nil {
			stopWake = context.AfterFunc(ctx, func() {
				srv.mu.Lock()
				srv.cond.Broadcast()
				srv.mu.Unlock()
			})
			defer stopWake()
		}
		srv.cond.Wait()
	}
	c := &Chunk{
		frames:  info.Frames,
		arrived: time.Now(),
		arrT:    s.obs.Clock(),
		digest:  digest,
		data:    data,
		done:    make(chan struct{}),
	}
	s.pending += info.Frames
	srv.pendingFrames.Add(int64(info.Frames))
	s.queue = append(s.queue, c)
	s.obs.Count(obs.CounterChunks, 1)
	srv.cfg.Obs.Count(obs.CounterChunks, 1)
	s.obs.GaugeSet(obs.GaugePending, int64(s.pending))
	srv.cfg.Obs.GaugeAdd(obs.GaugePending, int64(info.Frames))
	s.scheduleLocked()
	return c, nil
}

// Close stops accepting chunks; already-queued work is still served, after
// which the session retires from the server. Idempotent.
func (s *Session) Close() {
	s.srv.mu.Lock()
	defer s.srv.mu.Unlock()
	if s.state == stateActive {
		s.state = stateDraining
	}
	s.maybeRetireLocked()
}

// scheduleLocked puts the session on the run queue unless it is already
// there or a worker is stepping it (that worker re-schedules on exit).
// Caller holds srv.mu.
func (s *Session) scheduleLocked() {
	if s.queued || s.running || s.state == stateClosed {
		return
	}
	s.queued = true
	s.srv.runq <- s
}

// maybeRetireLocked removes a fully drained session from the server.
// Caller holds srv.mu.
func (s *Session) maybeRetireLocked() {
	if s.state != stateDraining || s.running || s.cur != nil || len(s.queue) > 0 {
		return
	}
	s.state = stateClosed
	delete(s.srv.sessions, s.ID)
	if ad := s.adapter; ad != nil {
		// Close blocks on the trainer's in-flight step, so it cannot run
		// under srv.mu. The server's WaitGroup tracks the shutdown: workers
		// still hold wg references here (retirement happens strictly before
		// Server.Close's session-drain wait can complete), so the Add never
		// races the final Wait, and Close observes every trainer gone.
		s.adapter = nil
		s.srv.wg.Add(1)
		go func() {
			defer s.srv.wg.Done()
			ad.Close()
		}()
	}
	s.srv.cfg.Obs.GaugeSet(obs.GaugeSessions, int64(len(s.srv.sessions)))
	s.srv.cond.Broadcast()
}

// completeLocked retires the chunk being served: results are re-sequenced
// into display order, the recovery policy classifies any failure (and may
// trip the session's breaker — see settleLocked), accounting is settled,
// and the ticket resolves. Only the worker that was stepping the chunk
// reaches here (via stepOnce), so touching worker-only counter state is
// safe. Caller holds srv.mu.
func (s *Session) completeLocked(c *Chunk, err error) {
	// Final counter mirror: the per-frame mirror runs only after successful
	// steps, so counts recorded by a step that then failed (decode error,
	// cancellation, breaker trip) would otherwise never reach the
	// server-wide collector.
	s.mirrorQuantCounters()
	c.err = s.settleLocked(err)
	sort.Slice(c.results, func(i, j int) bool { return c.results[i].Display < c.results[j].Display })
	s.pending -= c.frames
	s.srv.pendingFrames.Add(-int64(c.frames))
	s.obs.GaugeSet(obs.GaugePending, int64(s.pending))
	s.srv.cfg.Obs.GaugeAdd(obs.GaugePending, -int64(c.frames))
	s.base += c.frames
	s.cur = nil
	s.eng = nil
	close(c.done)
	// Queue space freed: wake Wait-policy submitters (and the drain loop).
	s.srv.cond.Broadcast()
}
