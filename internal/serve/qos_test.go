package serve

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/contentcache"
	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/qos"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// trainedNNS trains the refinement net once per test binary: the ladder
// quality and overload tests both need a net whose refinements actually beat
// the raw MV reconstruction, or degrading a rung could *improve* IoU and the
// monotonicity assertions would be meaningless.
var (
	trainNNSOnce sync.Once
	trainedNet   *nn.RefineNet
	trainNNSErr  error
)

func trainedNNS(t *testing.T) *nn.RefineNet {
	t.Helper()
	trainNNSOnce.Do(func() {
		trainedNet, trainNNSErr = core.TrainNNS(
			video.MakeTrainingSet(64, 48, 16), codec.DefaultConfig(),
			core.TrainConfig{Features: 8, Epochs: 2, LR: 0.01, Seed: 3})
	})
	if trainNNSErr != nil {
		t.Fatal(trainNNSErr)
	}
	return trainedNet
}

// meanBFrameIoU averages IoU against ground truth over the B-frames of one
// result set; dropped frames contribute zero, which is exactly the quality
// cost of shedding.
func meanBFrameIoU(results []FrameResult, gt []*video.Mask) float64 {
	var sum float64
	n := 0
	for _, r := range results {
		if r.Type != codec.BFrame {
			continue
		}
		n++
		if r.Mask != nil {
			sum += segment.IoU(r.Mask, gt[r.Display%len(gt)])
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestLadderStepQualityMonotone pins the ladder's ordering contract: each
// rung's quality on the same frames is at least the next-cheaper rung's, and
// a forced configuration selects its rung deterministically for every
// B-frame. Forcing uses the documented threshold escape hatches (negative =
// that rung always/never fires), so the test also pins those semantics.
func TestLadderStepQualityMonotone(t *testing.T) {
	v := makeTestVideo(18, 2.0)
	chunk := encodeTestVideo(t, v)
	nns := trainedNNS(t)

	rungs := []struct {
		step qos.Step
		cfg  qos.Config
	}{
		{qos.StepFull, qos.Config{FullBelow: 1e9, ReconAt: 1e18, SkipAt: 1e18}},
		{qos.StepRefine, qos.Config{FullBelow: -1, ReconAt: 1e18, SkipAt: 1e18}},
		{qos.StepRecon, qos.Config{FullBelow: -1, ReconAt: -1, SkipAt: 1e18}},
		{qos.StepSkip, qos.Config{SkipAt: -1}},
	}
	mean := make([]float64, len(rungs))
	for i, rung := range rungs {
		cfg := rung.cfg
		srv, err := NewServer(Config{
			MaxSessions:  1,
			Workers:      1,
			NewSegmenter: oracleFor(v),
			NNS:          nns,
			QoS:          &cfg,
			Obs:          obs.New(),
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := srv.Open()
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Submit(context.Background(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		results, err := c.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Type == codec.BFrame && r.Step != rung.step {
				t.Fatalf("rung %v: B-frame %d served on %v", rung.step, r.Display, r.Step)
			}
			if r.Type != codec.BFrame && r.Step != qos.StepFull {
				t.Fatalf("anchor %d reported step %v, want full", r.Display, r.Step)
			}
		}
		mean[i] = meanBFrameIoU(results, v.Masks)
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	const eps = 0.02
	for i := 0; i+1 < len(mean); i++ {
		if mean[i]+eps < mean[i+1] {
			t.Fatalf("ladder quality not monotone: %v=%.3f < %v=%.3f",
				rungs[i].step, mean[i], rungs[i+1].step, mean[i+1])
		}
	}
	if mean[0] < 0.5 {
		t.Fatalf("full rung IoU %.3f implausibly low", mean[0])
	}
	if mean[2] <= 0 {
		t.Fatal("recon rung produced no overlap with ground truth")
	}
	if mean[3] != 0 {
		t.Fatalf("skip rung IoU = %.3f, want 0 (every B-frame shed)", mean[3])
	}
}

// slowSegmenter adds a fixed compute cost per anchor so open-loop load
// sweeps create real queueing.
type slowSegmenter struct {
	d     time.Duration
	inner segment.Segmenter
}

func (s *slowSegmenter) Name() string { return s.inner.Name() }
func (s *slowSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	time.Sleep(s.d)
	return s.inner.Segment(f, display)
}

// TestOverloadDegradesGracefully is the open-loop overload run: arrival
// rate escalates well past capacity while the ladder, not the queue, absorbs
// the excess. Asserts the two halves of the QoS contract — p95 latency stays
// bounded at every load level, and quality (mean B-frame IoU) degrades
// monotonically as load rises — plus that the cheap rungs actually fired at
// the top level and the expensive one at the bottom.
func TestOverloadDegradesGracefully(t *testing.T) {
	v := makeTestVideo(12, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := trainedNNS(t)

	levels := []time.Duration{30 * time.Millisecond, 8 * time.Millisecond, 2 * time.Millisecond}
	const streams, chunksPer = 3, 5
	means := make([]float64, len(levels))
	p95s := make([]time.Duration, len(levels))
	snaps := make([]*obs.Report, len(levels))

	for li, interval := range levels {
		col := obs.New()
		srv, err := NewServer(Config{
			MaxSessions: streams,
			Workers:     2,
			NewSegmenter: func(id string) segment.Segmenter {
				return &slowSegmenter{d: 4 * time.Millisecond,
					inner: segment.NewOracle(id, v.Masks, 0.05, 2, 7)}
			},
			NNS:          nns,
			Policy:       Wait,
			MaxBatch:     4,
			MaxBatchWait: 5 * time.Millisecond,
			QoS:          &qos.Config{FullBelow: -1, ReconAt: 30, SkipAt: 60, Alpha: 0.3},
			Obs:          col,
		})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var sum float64
		n := 0
		chunks := make([][]byte, chunksPer)
		for i := range chunks {
			chunks[i] = chunk
		}
		g := &LoadGen{
			Server:   srv,
			Streams:  streams,
			Interval: interval,
			Chunks:   func(int) [][]byte { return chunks },
			Class: func(stream int) qos.Class {
				if stream%2 == 1 {
					return qos.ClassFree
				}
				return qos.ClassPremium
			},
			OnResult: func(_ int, r FrameResult) {
				if r.Type != codec.BFrame {
					return
				}
				mu.Lock()
				n++
				if r.Mask != nil {
					sum += segment.IoU(r.Mask, v.Masks[r.Display%len(v.Masks)])
				}
				mu.Unlock()
			},
		}
		rep, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("level %v served no B-frames", interval)
		}
		means[li] = sum / float64(n)
		p95s[li] = rep.P95
		snaps[li] = col.Snapshot()
	}

	for li := range levels {
		if p95s[li] > 3*time.Second {
			t.Fatalf("level %v: p95 = %v, not bounded under overload", levels[li], p95s[li])
		}
	}
	const tol = 0.03
	for i := 0; i+1 < len(means); i++ {
		if means[i+1] > means[i]+tol {
			t.Fatalf("IoU not monotone under load: level %v = %.3f > level %v = %.3f",
				levels[i+1], means[i+1], levels[i], means[i])
		}
	}
	if snaps[0].Counters[obs.CounterQoSRefine.String()] == 0 {
		t.Fatal("lightest level never served the refine rung")
	}
	top := snaps[len(snaps)-1].Counters
	if top[obs.CounterQoSRecon.String()]+top[obs.CounterQoSSkip.String()] == 0 {
		t.Fatal("heaviest level never degraded below refine")
	}
}

// TestDeadlineRetractionAtBatchDequeue pins satellite 1: a batched B-frame
// refinement whose chunk deadline expires while the item is still queued is
// retracted to the next-cheaper rung (the raw MV reconstruction) instead of
// computing stale NN work, counted on qos/deadline-overruns — and the
// degraded mask must NOT be committed to the content cache, or every later
// viewer of the content would be served it.
//
// Choreography (after TestForceCloseMirrorsQuantCounters): session B parks
// one of the two workers inside a gated NN-L execution; session A's anchors
// are pre-filled into the content cache so its first batch item is a B-frame
// refine. That item cannot flush — 1 pending < 2 busy workers, width 2, and
// the timer is 10s out — so it ages in the queue until the 600ms frame
// budget retracts it.
func TestDeadlineRetractionAtBatchDequeue(t *testing.T) {
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	vA, vB := contentVideo(0), contentVideo(1)
	chunkA, chunkB := encodeTestVideo(t, vA), encodeTestVideo(t, vB)
	ref := serialReference(t, vA, chunkA, nns)

	entered := make(chan struct{})
	gate := make(chan struct{})
	var opened int
	col := obs.New()
	srv, err := NewServer(Config{
		MaxSessions: 3,
		Workers:     2,
		NewSegmenter: func(string) segment.Segmenter {
			opened++
			if opened == 1 {
				return &signalGateSegmenter{entered: entered, gate: gate,
					inner: segment.NewOracle("gate", vB.Masks, 0.05, 2, 7)}
			}
			return segment.NewOracle("target", vA.Masks, 0.05, 2, 7)
		},
		NNS:          nns,
		FrameBudget:  600 * time.Millisecond,
		MaxBatch:     2,
		MaxBatchWait: 10 * time.Second,
		CacheBytes:   64 << 20,
		Obs:          col,
	})
	if err != nil {
		t.Fatal(err)
	}
	sB, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	chB, err := sB.Submit(context.Background(), chunkB)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // worker 1 is parked inside B's NN-L execution

	sA, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	digest := codec.ChunkDigest(chunkA)
	for _, m := range ref {
		if !m.Type.IsAnchor() {
			continue
		}
		key := contentcache.Key{Content: digest, Display: m.Display, Model: sA.modelFP}
		_, f, owner := srv.cache.Acquire(key)
		if !owner {
			t.Fatalf("pre-fill of display %d lost ownership", m.Display)
		}
		f.Commit(m.Mask)
	}
	chA, err := sA.Submit(context.Background(), chunkA)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := chA.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	retracted := 0
	for _, r := range resA {
		switch {
		case r.Type.IsAnchor():
			if r.Step != qos.StepFull || r.Mask == nil {
				t.Fatalf("anchor %d: step %v mask %v", r.Display, r.Step, r.Mask != nil)
			}
		case r.Step == qos.StepRecon:
			retracted++
			if r.Mask == nil || r.Dropped {
				t.Fatalf("retracted frame %d has no reconstruction mask", r.Display)
			}
		default:
			if r.Step != qos.StepSkip || !r.Dropped {
				t.Fatalf("B-frame %d: step %v dropped=%v, want budget shed", r.Display, r.Step, r.Dropped)
			}
		}
	}
	if retracted != 1 {
		t.Fatalf("retracted frames = %d, want exactly 1 (only one refine was queued)", retracted)
	}
	snap := col.Snapshot()
	if got := snap.Counters[obs.CounterQoSDeadlineOverruns.String()]; got != 1 {
		t.Fatalf("qos/deadline-overruns = %d, want 1", got)
	}
	if snap.Counters[obs.CounterCacheFillAborts.String()] == 0 {
		t.Fatal("retracted refine's cache fill was not abandoned")
	}

	close(gate)
	if _, err := chB.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	sB.Close()
	sA.Close()

	// No poisoning: a fresh session serving the same content must get the
	// full-quality pipeline bit-for-bit — the retracted frame's recon mask
	// must not have been published under the full-quality cache key.
	sC, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	chC, err := sC.Submit(context.Background(), chunkA)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := chC.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(resC) != len(ref) {
		t.Fatalf("session C served %d frames, want %d", len(resC), len(ref))
	}
	for i, r := range resC {
		w := ref[i]
		if r.Display != w.Display || r.Dropped || r.Mask == nil {
			t.Fatalf("session C frame %d: display %d dropped=%v", i, r.Display, r.Dropped)
		}
		if r.Type == codec.BFrame && r.Step != qos.StepRefine {
			t.Fatalf("session C B-frame %d served on %v, want refine", r.Display, r.Step)
		}
		if !bytes.Equal(r.Mask.Pix, w.Mask.Pix) {
			t.Fatalf("session C frame %d diverges from serial reference: cache was poisoned", r.Display)
		}
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// panicGateSegmenter signals entry, then dies — the cache-fill owner that
// never publishes.
type panicGateSegmenter struct {
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
	inner   segment.Segmenter
}

func (g *panicGateSegmenter) Name() string { return g.inner.Name() }
func (g *panicGateSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	panic("owner killed mid-fill")
}

// TestAbandonedFillReoffered pins satellite 2: when a single-flight cache
// fill's owner dies mid-computation, the waiters must not leave the key
// permanently uncached. Exactly one waiter re-acquires the fill (and
// publishes when its own step settles); the rest compute locally without a
// second wait. The pin is the late viewer: it must serve every frame from
// the cache, which only holds if the re-offered fill was actually claimed
// and committed.
func TestAbandonedFillReoffered(t *testing.T) {
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	vA := contentVideo(0)
	chunkA := encodeTestVideo(t, vA)
	ref := serialReference(t, vA, chunkA, nns)

	entered := make(chan struct{})
	gate := make(chan struct{})
	var opened int
	col := obs.New()
	srv, err := NewServer(Config{
		MaxSessions: 5,
		Workers:     4,
		NewSegmenter: func(string) segment.Segmenter {
			opened++
			if opened == 1 {
				// Same oracle label as every other session: the model
				// fingerprint hashes the segmenter name, and the owner must
				// share the waiters' cache keys.
				return &panicGateSegmenter{entered: entered, gate: gate,
					inner: segment.NewOracle("target", vA.Masks, 0.05, 2, 7)}
			}
			return segment.NewOracle("target", vA.Masks, 0.05, 2, 7)
		},
		NNS:        nns,
		CacheBytes: 64 << 20,
		Obs:        col,
	})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	chO, err := owner.Submit(context.Background(), chunkA)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // owner holds the display-0 fill, parked inside NN-L

	const waiters = 3
	tickets := make([]*Chunk, waiters)
	sessions := make([]*Session, waiters)
	for i := range sessions {
		s, err := srv.Open()
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		if tickets[i], err = s.Submit(context.Background(), chunkA); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.cacheWaiters.Load() != waiters {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("cache waiters = %d, want %d\n%s", srv.cacheWaiters.Load(), waiters, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // owner panics; its step fails and the fill is abandoned

	if _, err := chO.Wait(context.Background()); err == nil {
		t.Fatal("owner's chunk succeeded past a panicking segmenter")
	}
	for i, c := range tickets {
		res, err := c.Wait(context.Background())
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
		if len(res) != len(ref) {
			t.Fatalf("waiter %d served %d frames, want %d", i, len(res), len(ref))
		}
		for j, r := range res {
			if r.Mask == nil || !bytes.Equal(r.Mask.Pix, ref[j].Mask.Pix) {
				t.Fatalf("waiter %d frame %d diverges from serial reference", i, j)
			}
		}
	}
	owner.Close()
	for _, s := range sessions {
		s.Close()
	}

	// The pin: a late viewer must find every display cached. Pre-fix, the
	// abandoned display-0 fill was never re-offered, so the key stayed a
	// permanent miss and this session would compute it (17 hits, not 18).
	viewer, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	chV, err := viewer.Submit(context.Background(), chunkA)
	if err != nil {
		t.Fatal(err)
	}
	resV, err := chV.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range resV {
		if r.Mask == nil || !bytes.Equal(r.Mask.Pix, ref[j].Mask.Pix) {
			t.Fatalf("viewer frame %d diverges from serial reference", j)
		}
	}
	if got := viewer.Metrics().Counters[obs.CounterCacheHits.String()]; got != int64(len(ref)) {
		t.Fatalf("viewer cache hits = %d, want %d (abandoned fill was not re-offered)",
			got, len(ref))
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
