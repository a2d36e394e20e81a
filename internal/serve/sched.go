package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/contentcache"
	"vrdann/internal/core"
	"vrdann/internal/obs"
	"vrdann/internal/qos"
	"vrdann/internal/video"
)

// worker is one lane of the shared compute budget. Each dispatch serves
// exactly one frame of one session and re-queues the session behind every
// other runnable one, so N active streams each get ~1/N of the pool —
// per-stream fairness by construction, with no per-session threads.
func (srv *Server) worker() {
	defer srv.wg.Done()
	for s := range srv.runq {
		s.stepOnce()
	}
}

// stepOnce serves one frame of the session's current chunk (starting the
// next queued chunk if none is in flight), then re-queues the session if
// work remains or retires it if it is draining and empty.
func (s *Session) stepOnce() {
	srv := s.srv
	srv.mu.Lock()
	s.queued = false
	if s.cur == nil {
		if len(s.queue) == 0 {
			s.maybeRetireLocked()
			srv.mu.Unlock()
			return
		}
		s.cur = s.queue[0]
		s.queue = s.queue[1:]
	}
	cur := s.cur
	s.running = true
	srv.mu.Unlock()

	finished, err := s.serveOneFrame(cur)
	if err != nil {
		// Quarantine: a failed step leaves the decoder mid-entropy-stream
		// and the engine's reference window half-built. Drop both — chunks
		// are independently encoded and GOP-aligned, so the next chunk's
		// header is a clean resync point. Worker-only state; this goroutine
		// still holds s.running.
		s.dec = nil
		s.eng = nil
		if s.fill != nil {
			// The resync invalidates the in-flight cache fill: the step that
			// was computing it did not complete cleanly, so nothing is
			// published and waiters fall back to computing locally.
			s.fill.Abandon()
			s.fill = nil
		}
	}

	srv.mu.Lock()
	s.running = false
	if finished || err != nil {
		s.completeLocked(cur, err)
	}
	if s.cur != nil || len(s.queue) > 0 {
		s.scheduleLocked()
	} else {
		s.maybeRetireLocked()
	}
	srv.mu.Unlock()
}

// serveOneFrame advances the session's engine by one frame. Only the
// worker currently holding s.running executes this, so the decoder/engine
// state needs no lock.
//
// It is the serving path's one panic-containment site: a panic in the
// decoder, the engine step or a model becomes a core.ClassInternal error
// for stepOnce's quarantine and the breaker to handle like any failed step,
// instead of unwinding the worker and taking the whole process down.
func (s *Session) serveOneFrame(cur *Chunk) (finished bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			finished, err = false, fmt.Errorf("serve: panic serving frame: %v", r)
		}
	}()
	if s.eng == nil {
		mode := codec.DecodeSideInfo
		if ctl := s.srv.qosCtl; ctl != nil && ctl.ResegInterval() > 0 {
			// The ladder's full rung re-segments B-frames with NN-L, which
			// needs their pixels. Only pay for B-frame pixel decode while
			// the control loop is lightly loaded enough to ever promote;
			// under load the chunk decodes side-info only and a full-rung
			// selection degrades to refinement inside the engine.
			mode = codec.DecodeFull
		}
		if s.dec == nil {
			s.dec, err = codec.NewStreamDecoder(cur.data, mode)
		} else {
			s.dec.SetMode(mode)
			err = s.dec.Reset(cur.data)
		}
		if err != nil {
			return false, err
		}
		if s.adapter != nil {
			// Chunk boundary — the one safe weight-swap point: no engine is
			// alive, so nothing is mid-flight on the old weights, and the
			// engine built below bakes the promoted refiner in. The content-
			// cache fingerprint moves with the version, so masks computed by
			// adapted weights never mix with another weight set's entries.
			if p, ok := s.adapter.TakePromoted(); ok {
				s.pipe.SetRefineNet(p.Net, p.Quant)
				s.adaptVersion = p.Version
				if s.srv.cache != nil {
					s.modelFP = contentcache.AdaptedFingerprint(s.baseFP, s.ID, p.Version)
				}
			}
		}
		s.eng = s.pipe.NewEngine(s.dec)
	}
	s.lastStep = qos.StepFull // anchors never degrade; B-frames overwrite via the selector
	mo, pending, err := s.eng.StepPrepare(s.srv.ctx, s.stepSelector(cur))
	if err != nil {
		return false, err
	}
	if pending != nil {
		mask, nerr := s.execPending(cur, pending)
		if nerr != nil {
			return false, nerr
		}
		mo = pending.Finish(mask)
	}
	if mo == nil {
		// Exhausted with fewer delivered frames than the header promised
		// cannot happen on a validated chunk; treat defensively as done.
		return true, nil
	}
	r := FrameResult{
		Display: s.base + mo.Display,
		Type:    mo.Type,
		Mask:    mo.Mask,
		Dropped: mo.Type == codec.BFrame && mo.Mask == nil,
		Step:    s.lastStep,
		Latency: time.Since(cur.arrived),
	}
	if r.Dropped {
		s.obs.Count(obs.CounterDrops, 1)
		s.srv.cfg.Obs.Count(obs.CounterDrops, 1)
	}
	s.obs.Span(obs.StageServe, r.Display, byte(r.Type), cur.arrT)
	cur.results = append(cur.results, r)
	if s.fill != nil {
		// The step completed cleanly: publish the mask this session owed the
		// content cache. Entries are only ever inserted from this path, so a
		// cached mask is always one a session finished computing — at full
		// quality. A B-frame that claimed its fill on the refinement rung but
		// was deadline-retracted to a cheaper one must abandon instead: the
		// cache is keyed on the full-quality configuration, and a degraded
		// mask served from it would poison every later viewer.
		if mo.Mask != nil && (mo.Type != codec.BFrame || s.lastStep == qos.StepRefine) {
			s.fill.Commit(mo.Mask)
		} else {
			s.fill.Abandon()
		}
		s.fill = nil
	}
	if s.adapter != nil && mo.Mask != nil {
		if mo.Type != codec.BFrame {
			// A non-nil pending means this anchor's mask came from a real
			// NN-L compute (not the content cache): harvest it as a
			// pseudo-label together with the decoded luma.
			if pending != nil {
				s.adapter.Harvest(r.Display, pending.Frame(), mo.Mask)
			}
		} else if s.lastStep == qos.StepRefine {
			// Full-quality refined B-frame: feed the drift monitor the
			// refined-vs-anchor score the promotion contract is validated on.
			s.adapter.ObserveDrift(mo.Mask, s.lastAnchor)
		}
	}
	if mo.Mask != nil && mo.Type != codec.BFrame {
		s.lastAnchor = mo.Mask
	}
	if s.srv.cfg.SkipResidual {
		s.mirrorQuantCounters()
	}
	return s.eng.Remaining() == 0, nil
}

// stepSelector builds the per-B-frame ladder hook for one chunk. Without a
// controller it reproduces the pre-ladder binary policy exactly — refine
// inside the budget, shed past it — so a server with QoS disabled serves
// bit-identical to one that predates the ladder. With a controller it asks
// for a rung per frame, applies the closed loop's promotion spacing to
// full-rung selections, retunes the batcher width, and records the decision
// on the per-ladder-step counters. Only the worker holding s.running runs
// the returned closure (from inside StepPrepare), so s.lastStep needs no
// lock.
func (s *Session) stepSelector(cur *Chunk) core.StepSelector {
	budget := s.srv.cfg.FrameBudget
	ctl := s.srv.qosCtl
	if ctl == nil {
		return func(codec.FrameInfo) qos.Step {
			if budget > 0 && time.Since(cur.arrived) > budget {
				s.lastStep = qos.StepSkip
				return qos.StepSkip
			}
			s.lastStep = qos.StepRefine
			return qos.StepRefine
		}
	}
	return func(info codec.FrameInfo) qos.Step {
		if budget > 0 && time.Since(cur.arrived) > budget {
			// The frame budget outranks the ladder: a frame already past
			// its deadline is stale at any compute price.
			return s.countStep(qos.StepSkip)
		}
		l := s.srv.qosLoad()
		ctl.Observe(l)
		step := ctl.Select(l, s.class)
		if step == qos.StepFull {
			// Promotion spacing: the closed loop stretches how often the
			// full rung actually fires as smoothed load rises.
			if iv := ctl.ResegInterval(); iv <= 0 || info.Display%iv != 0 {
				step = qos.StepRefine
			}
		}
		srv := s.srv
		srv.cfg.Obs.GaugeSet(obs.GaugeQoSPressure, int64(ctl.Pressure()*1000))
		if b := srv.batcher; b != nil {
			w := ctl.BatchWidth(srv.cfg.MaxBatch)
			b.SetMaxBatch(w)
			srv.cfg.Obs.GaugeSet(obs.GaugeQoSBatchWidth, int64(w))
		}
		return s.countStep(step)
	}
}

// countStep records one ladder decision on the session and server
// collectors and remembers it for the FrameResult.
func (s *Session) countStep(step qos.Step) qos.Step {
	s.lastStep = step
	c := stepCounter(step)
	s.obs.Count(c, 1)
	s.srv.cfg.Obs.Count(c, 1)
	return step
}

// stepCounter maps a ladder rung to its obs counter.
func stepCounter(step qos.Step) obs.Counter {
	switch step {
	case qos.StepFull:
		return obs.CounterQoSFull
	case qos.StepRefine:
		return obs.CounterQoSRefine
	case qos.StepRecon:
		return obs.CounterQoSRecon
	}
	return obs.CounterQoSSkip
}

// cachedMask is the session's core.MaskSource hook: it consults the shared
// content cache for the frame about to be stepped. A resident mask is
// returned directly (served without NN work); a miss either claims the
// single-flight fill — remembered in s.fill and resolved by serveOneFrame
// when the step settles — or, when another session is already computing the
// same key, waits for that fill rather than duplicating the work. Waiters
// are discounted from the batcher's stall detection (srv.cacheWaiters):
// they hold a worker but cannot enqueue batch items, and the fill they wait
// on may be the very batch item the stall callback is deciding about. Only
// the worker holding s.running calls this (from inside StepPrepare), so
// s.cur and s.fill need no lock.
func (s *Session) cachedMask(display int, _ codec.FrameType) *video.Mask {
	srv := s.srv
	key := contentcache.Key{Content: s.cur.digest, Display: display, Model: s.modelFP}
	m, f, owner := srv.cache.Acquire(key)
	if m != nil {
		s.obs.Count(obs.CounterCacheHits, 1)
		return m
	}
	if owner {
		s.fill = f
		return nil
	}
	srv.cacheWaiters.Add(1)
	m, ok := f.Wait(srv.ctx)
	srv.cacheWaiters.Add(-1)
	if ok {
		s.obs.Count(obs.CounterCacheHits, 1)
		return m
	}
	if srv.ctx.Err() != nil {
		// Server stopping: compute locally, nothing to re-offer.
		return nil
	}
	// The fill was abandoned — its owner's step failed (quarantine, panic)
	// before publishing. Without a re-offer the key would stay a permanent
	// miss: every later viewer of this content would find neither an entry
	// nor an in-flight fill to join. Re-acquire exactly once: either this
	// session claims the new fill (serveOneFrame resolves it when the step
	// settles, so later viewers hit) or another waiter beat it to the claim
	// and this frame computes locally. Never a second Wait — a one-shot
	// claim-or-compute can't loop however many owners die.
	m, f, owner = srv.cache.Acquire(key)
	if m != nil {
		s.obs.Count(obs.CounterCacheHits, 1)
		return m
	}
	if owner {
		s.fill = f
	}
	return nil
}

// mirrorQuantCounters forwards the residual-skip block counters the core
// engine records on the session collector into the server-wide collector,
// so /metrics shows fleet-level skip rates. Drops and decode errors are
// double-counted at their recording site instead; the skip decision lives
// in core, which only knows one collector, hence the delta mirror. Only
// the worker holding s.running calls this, so the cached last-values need
// no lock.
func (s *Session) mirrorQuantCounters() {
	if s.srv.cfg.Obs == nil {
		return
	}
	if v := s.obs.CounterValue(obs.CounterQuantBlocksSkipped); v > s.quantSkipped {
		s.srv.cfg.Obs.Count(obs.CounterQuantBlocksSkipped, v-s.quantSkipped)
		s.quantSkipped = v
	}
	if v := s.obs.CounterValue(obs.CounterQuantBlocksDirty); v > s.quantDirty {
		s.srv.cfg.Obs.Count(obs.CounterQuantBlocksDirty, v-s.quantDirty)
		s.quantDirty = v
	}
	if v := s.obs.CounterValue(obs.CounterQuantBlocksUnknown); v > s.quantUnknown {
		s.srv.cfg.Obs.Count(obs.CounterQuantBlocksUnknown, v-s.quantUnknown)
		s.quantUnknown = v
	}
}

// execPending computes a step's NN mask. NN-L work (anchors, and B-frames
// the ladder promoted to the full rung) runs inline with the session's own
// segmenter: no Segmenter fuses frames, so a cross-session queue would have
// nothing to share. NN-S refinement goes through the shared batcher when
// one is configured, on the server context so a forced drain wakes workers
// blocked in a batch; a batcher error fails only this session's step. The
// session's refine span is recorded either way (batched spans include queue
// wait), so per-session latency reports stay comparable across modes.
//
// Batched work carries the chunk's deadline: StepPrepare's budget check ran
// before the item queued, and a partial batch can hold it well past
// FrameBudget. An item that ages out while queued is retracted to the
// ladder's next-cheaper rung — the raw MV reconstruction — instead of
// computing stale NN work, and counted on qos/deadline-overruns.
func (s *Session) execPending(cur *Chunk, pn *core.PendingNN) (*video.Mask, error) {
	b := s.srv.batcher
	if b == nil || pn.IsAnchor() || s.adaptVersion > 0 {
		// Sessions serving promoted weights bypass the batcher too: it runs one
		// shared base-weight network, which would silently serve this session
		// the un-adapted model. Before the first promotion the clone's weights
		// equal the base, so fused batching stays bit-identical.
		return pn.ExecuteLocal(), nil
	}
	ctx := s.srv.ctx
	if budget := s.srv.cfg.FrameBudget; budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, cur.arrived.Add(budget))
		defer cancel()
	}
	t := s.obs.Clock()
	prev, rec, next := pn.RefineInputs()
	m, err := b.Refine(ctx, prev, rec, next)
	s.obs.Span(obs.StageRefine, pn.Display(), byte(pn.FrameType()), t)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && s.srv.ctx.Err() == nil {
		s.obs.Count(obs.CounterQoSDeadlineOverruns, 1)
		s.srv.cfg.Obs.Count(obs.CounterQoSDeadlineOverruns, 1)
		s.lastStep = qos.StepRecon
		return pn.FallbackMask(), nil
	}
	return m, err
}
