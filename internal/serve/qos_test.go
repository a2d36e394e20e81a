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
			NNS:    nns,
			Policy: Wait,
			QoS:    &qos.Config{FullBelow: -1, ReconAt: 30, SkipAt: 60, Alpha: 0.3},
			Obs:    col,
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

// TestDegradedFramesNeverFillCache pins the cache's quality rule: the
// content cache is keyed on the full-quality configuration, so a B-frame
// the ladder degraded must neither be served from it nor publish its cheap
// mask to it — a degraded entry would be served to every later viewer of
// the content. With every B-frame forced to the recon rung, only the
// anchors are looked up, filled and committed, and no B-frame key is left
// resident or with an open fill.
func TestDegradedFramesNeverFillCache(t *testing.T) {
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	v := contentVideo(0)
	chunk := encodeTestVideo(t, v)
	col := obs.New()
	srv, err := NewServer(Config{
		MaxSessions:  1,
		Workers:      1,
		NewSegmenter: oracleFor(v),
		NNS:          nns,
		CacheBytes:   64 << 20,
		QoS:          &qos.Config{FullBelow: -1, ReconAt: -1, SkipAt: 1e9},
		Obs:          col,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Submit(context.Background(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ch.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot() // before the probes below add lookups of their own
	anchors := 0
	for _, r := range res {
		if r.Type.IsAnchor() {
			anchors++
			continue
		}
		if r.Step != qos.StepRecon || r.Mask == nil {
			t.Fatalf("B-frame %d served on %v (mask %t), want a recon mask", r.Display, r.Step, r.Mask != nil)
		}
		key := contentcache.Key{Content: codec.ChunkDigest(chunk), Display: r.Display, Model: s.modelFP}
		if srv.cache.Contains(key) {
			t.Fatalf("degraded B-frame %d was published to the cache", r.Display)
		}
		_, f, owner := srv.cache.Acquire(key)
		if !owner {
			t.Fatalf("degraded B-frame %d left a fill open", r.Display)
		}
		f.Abandon()
	}
	if got := srv.cache.Len(); got != anchors {
		t.Fatalf("cache holds %d entries, want the %d anchors", got, anchors)
	}
	if got := snap.Counters[obs.CounterCacheMisses.String()] + snap.Counters[obs.CounterCacheHits.String()]; got != int64(anchors) {
		t.Fatalf("cache lookups = %d, want one per anchor (%d)", got, anchors)
	}
	s.Close()
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
	lookups := func() int64 {
		snap := col.Snapshot()
		return snap.Counters[obs.CounterCacheHits.String()] + snap.Counters[obs.CounterCacheMisses.String()]
	}
	before := lookups() // the owner's one miss so far

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
	for fillWaiters(col) != waiters {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("cache waiters = %d, want %d\n%s", fillWaiters(col), waiters, buf[:n])
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
	// Each waiter frame is one lookup and must record exactly one outcome:
	// the abandoned wait and its re-offer are the same lookup.
	if got, want := lookups()-before, int64(waiters*len(ref)); got != want {
		t.Fatalf("waiters recorded %d cache hits+misses, want one per lookup (%d)", got, want)
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

// fillWaiters reads the cache-waiters gauge: lookups currently blocked on
// another session's fill.
func fillWaiters(col *obs.Collector) int64 {
	for _, g := range col.Snapshot().Gauges {
		if g.Name == obs.GaugeCacheWaiters.String() {
			return g.Current
		}
	}
	return 0
}
