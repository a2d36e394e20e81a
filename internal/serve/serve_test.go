package serve

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

func makeTestVideo(frames int, speed float64) *video.Video {
	return video.Generate(video.SceneSpec{
		Name: "serve-test", W: 64, H: 48, Frames: frames, Seed: 42, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 10, X: 24, Y: 24,
			VX: speed, VY: speed / 2, Intensity: 220, Foreground: true,
		}},
	})
}

func encodeTestVideo(t *testing.T, v *video.Video) []byte {
	t.Helper()
	st, err := codec.Encode(v, codec.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st.Data
}

// requireNoGoroutineLeak mirrors the core leak harness: fn must return the
// process to its starting goroutine count.
func requireNoGoroutineLeak(t *testing.T, fn func()) {
	t.Helper()
	runtime.GC()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// oracleFor builds the deterministic per-session NN-L used throughout: the
// oracle reseeds per Segment call, so two instances with the same seed
// produce identical masks regardless of call interleaving — which is what
// lets the test compare served masks against a standalone serial run.
func oracleFor(v *video.Video) func(id string) segment.Segmenter {
	return func(id string) segment.Segmenter {
		return segment.NewOracle(id, v.Masks, 0.05, 2, 7)
	}
}

// serialReference runs the single-stream serial pipeline over one chunk —
// the gold standard the serving layer must match bit-for-bit.
func serialReference(t *testing.T, v *video.Video, chunk []byte, nns *nn.RefineNet) []core.MaskOut {
	t.Helper()
	sp := &core.StreamingPipeline{
		NNL: segment.NewOracle("ref", v.Masks, 0.05, 2, 7),
		NNS: nns, Refine: nns != nil, Workers: 1,
	}
	var out []core.MaskOut
	err := sp.Run(chunk, core.DisplayOrder(func(m core.MaskOut) error {
		out = append(out, m)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerMultiStream is the acceptance run: more streams than the
// admission cap, all admitted streams served concurrently under -race,
// masks bit-identical to the serial single-stream run, per-session
// histograms populated, clean drain with zero leaked goroutines.
func TestServerMultiStream(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)

	const streams, cap = 11, 8
	const chunksPerStream = 2
	serverObs := obs.New()
	var rep *LoadReport
	sessions := make(map[int]*Session)
	var mu sync.Mutex
	requireNoGoroutineLeak(t, func() {
		srv, err := NewServer(Config{
			MaxSessions:  cap,
			Workers:      4,
			NewSegmenter: oracleFor(v),
			NNS:          nns,
			Obs:          serverObs,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := &LoadGen{
			Server:  srv,
			Streams: streams,
			Chunks: func(int) [][]byte {
				// The same chunk twice: the second submission exercises the
				// decoder Reset path and the session-relative display offset.
				return [][]byte{chunk, chunk}
			},
			OnSession: func(i int, s *Session) {
				mu.Lock()
				sessions[i] = s
				mu.Unlock()
			},
		}
		rep, err = gen.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Collect per-session metrics before the server retires them.
		if err := srv.Close(context.Background()); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})

	if rep.Admitted != cap || rep.AdmissionRejects != streams-cap {
		t.Fatalf("admitted %d rejects %d, want %d/%d",
			rep.Admitted, rep.AdmissionRejects, cap, streams-cap)
	}
	wantFrames := cap * chunksPerStream * 18
	if rep.Frames != wantFrames {
		t.Fatalf("served %d frames, want %d", rep.Frames, wantFrames)
	}
	if rep.Dropped != 0 || rep.DropRate != 0 {
		t.Fatalf("no-budget run dropped %d frames", rep.Dropped)
	}
	if rep.FPS <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("degenerate latency stats: %+v", rep)
	}

	// Per-session obs histograms: every pipeline stage a served frame
	// crosses must have recorded spans.
	for i, s := range sessions {
		snap := s.Metrics()
		if snap == nil {
			t.Fatalf("session %d: nil metrics", i)
		}
		want := map[string]bool{"nn-l": false, "reconstruct": false, "nn-s": false, "serve/frame": false}
		for _, st := range snap.Stages {
			if _, ok := want[st.Name]; ok && st.Count > 0 {
				want[st.Name] = true
			}
		}
		for name, seen := range want {
			if !seen {
				t.Fatalf("session %d: stage %q has no recorded spans", i, name)
			}
		}
		if snap.Counters["chunks"] != chunksPerStream {
			t.Fatalf("session %d: chunks counter = %d", i, snap.Counters["chunks"])
		}
	}

	// Server-wide accounting.
	srvSnap := serverObs.Snapshot()
	if srvSnap.Counters["rejects"] != int64(streams-cap) {
		t.Fatalf("server rejects counter = %d, want %d", srvSnap.Counters["rejects"], streams-cap)
	}
	if srvSnap.Counters["chunks"] != int64(cap*chunksPerStream) {
		t.Fatalf("server chunks counter = %d", srvSnap.Counters["chunks"])
	}
}

// TestServedMasksBitIdenticalToSerial pins the core serving invariant
// directly: frames served through the shared scheduler under concurrent
// load equal a standalone serial run byte-for-byte, on both the first
// chunk (fresh decoder) and the second (Reset path). The deprecated
// MaxBatch is set to show it is inert: the pool keeps its default size.
func TestServedMasksBitIdenticalToSerial(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	ref := serialReference(t, v, chunk, nns)

	srv, err := NewServer(Config{
		MaxSessions:  8,
		MaxBatch:     4,
		NewSegmenter: oracleFor(v),
		NNS:          nns,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := srv.Load().Workers, (Config{}).withDefaults().Workers; got != want {
		t.Fatalf("MaxBatch moved Workers to %d, want the default %d", got, want)
	}
	results := make(map[int][][]FrameResult) // stream -> chunk results
	var mu sync.Mutex
	gen := &LoadGen{
		Server:  srv,
		Streams: 8,
		Chunks:  func(int) [][]byte { return [][]byte{chunk, chunk} },
	}
	// Collect per-chunk results via sessions directly for exact slicing.
	var wg sync.WaitGroup
	for i := 0; i < gen.Streams; i++ {
		s, err := srv.Open()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			defer s.Close()
			for c := 0; c < 2; c++ {
				ck, err := s.Submit(context.Background(), chunk)
				if err != nil {
					t.Errorf("stream %d chunk %d: %v", i, c, err)
					return
				}
				res, err := ck.Wait(context.Background())
				if err != nil {
					t.Errorf("stream %d chunk %d: %v", i, c, err)
					return
				}
				mu.Lock()
				results[i] = append(results[i], res)
				mu.Unlock()
			}
		}(i, s)
	}
	wg.Wait()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < gen.Streams; i++ {
		for c, res := range results[i] {
			if len(res) != len(ref) {
				t.Fatalf("stream %d chunk %d: %d frames, want %d", i, c, len(res), len(ref))
			}
			for j, fr := range res {
				want := ref[j]
				if fr.Display != c*len(ref)+want.Display {
					t.Fatalf("stream %d chunk %d frame %d: display %d", i, c, j, fr.Display)
				}
				if fr.Type != want.Type || fr.Dropped {
					t.Fatalf("stream %d chunk %d frame %d: type/drop diverge", i, c, j)
				}
				if !bytes.Equal(fr.Mask.Pix, want.Mask.Pix) {
					t.Fatalf("stream %d chunk %d frame %d: mask differs from serial run", i, c, j)
				}
			}
		}
	}
}

// TestAdmissionRejectAtCap pins the session cap and the reject counter.
func TestAdmissionRejectAtCap(t *testing.T) {
	v := makeTestVideo(6, 1)
	col := obs.New()
	srv, err := NewServer(Config{MaxSessions: 2, Workers: 1, NewSegmenter: oracleFor(v), Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	s1, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open(); !errors.Is(err, ErrAdmission) {
		t.Fatalf("third Open: %v, want ErrAdmission", err)
	}
	if got := col.Snapshot().Counters["rejects"]; got != 1 {
		t.Fatalf("rejects counter = %d", got)
	}
	// Closing a session frees its slot.
	s1.Close()
	if _, err := srv.Open(); err != nil {
		t.Fatalf("Open after close: %v", err)
	}
}

// TestQueuePolicies pins reject-vs-wait when the frame queue is full.
func TestQueuePolicies(t *testing.T) {
	v := makeTestVideo(12, 1)
	chunk := encodeTestVideo(t, v)

	// A segmenter that blocks until released keeps the queue saturated.
	release := make(chan struct{})
	var once sync.Once
	blocking := func(id string) segment.Segmenter {
		return &gateSegmenter{gate: release, inner: segment.NewOracle(id, v.Masks, 0, 0, 1)}
	}
	t.Run("reject", func(t *testing.T) {
		srv, err := NewServer(Config{
			MaxSessions: 1, MaxQueuedFrames: 12, Workers: 1,
			Policy: Reject, NewSegmenter: blocking,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := srv.Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(context.Background(), chunk); err != nil {
			t.Fatal(err)
		}
		// First chunk fills the 12-frame bound; the second must bounce.
		if _, err := s.Submit(context.Background(), chunk); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("second Submit: %v, want ErrQueueFull", err)
		}
		if got := s.Metrics().Counters["rejects"]; got != 1 {
			t.Fatalf("session rejects = %d", got)
		}
		once.Do(func() { close(release) })
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("wait-context", func(t *testing.T) {
		gate := make(chan struct{})
		srv, err := NewServer(Config{
			MaxSessions: 1, MaxQueuedFrames: 12, Workers: 1,
			Policy: Wait,
			NewSegmenter: func(id string) segment.Segmenter {
				return &gateSegmenter{gate: gate, inner: segment.NewOracle(id, v.Masks, 0, 0, 1)}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := srv.Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(context.Background(), chunk); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		// The queue stays full (segmenter gated), so the Wait-policy Submit
		// must block until its context fires.
		if _, err := s.Submit(ctx, chunk); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiting Submit: %v, want DeadlineExceeded", err)
		}
		close(gate)
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// gateSegmenter blocks every Segment call until its gate closes.
type gateSegmenter struct {
	gate  <-chan struct{}
	inner segment.Segmenter
}

func (g *gateSegmenter) Name() string { return g.inner.Name() }
func (g *gateSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	<-g.gate
	return g.inner.Segment(f, display)
}

// TestDeadlineDropPolicy: with an immediately expired budget every B-frame
// is shed while anchors are still computed — the anchor chain survives
// overload.
func TestDeadlineDropPolicy(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	col := obs.New()
	srv, err := NewServer(Config{
		MaxSessions: 1, Workers: 1,
		FrameBudget:  time.Nanosecond,
		NewSegmenter: oracleFor(v),
		Obs:          col,
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
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	nB, nDropped := 0, 0
	for _, fr := range res {
		if fr.Type == codec.BFrame {
			nB++
			if !fr.Dropped || fr.Mask != nil {
				t.Fatalf("frame %d: expired B-frame not dropped", fr.Display)
			}
			nDropped++
		} else {
			if fr.Dropped || fr.Mask == nil {
				t.Fatalf("frame %d: anchor must never be dropped", fr.Display)
			}
		}
	}
	if nB == 0 {
		t.Fatal("test stream has no B-frames")
	}
	if got := col.Snapshot().Counters["drops"]; got != int64(nDropped) {
		t.Fatalf("drops counter = %d, want %d", got, nDropped)
	}
}

// TestCloseCancelsInFlight: a Close whose context is already cancelled
// force-fails pending chunks but still drains every goroutine.
func TestCloseCancelsInFlight(t *testing.T) {
	v := makeTestVideo(18, 1)
	chunk := encodeTestVideo(t, v)
	gate := make(chan struct{})
	requireNoGoroutineLeak(t, func() {
		srv, err := NewServer(Config{
			MaxSessions: 2, Workers: 1,
			NewSegmenter: func(id string) segment.Segmenter {
				return &gateSegmenter{gate: gate, inner: segment.NewOracle(id, v.Masks, 0, 0, 1)}
			},
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
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		closed := make(chan error, 1)
		go func() { closed <- srv.Close(ctx) }()
		// The gated segmenter holds the worker; the forced drain cancels the
		// server context, the blocked step resolves once released, and the
		// chunk fails with the cancellation.
		time.Sleep(20 * time.Millisecond)
		close(gate)
		if err := <-closed; !errors.Is(err, context.Canceled) {
			t.Fatalf("Close = %v, want context.Canceled", err)
		}
		if _, err := c.Wait(context.Background()); err == nil {
			t.Fatal("chunk served despite forced shutdown")
		}
		if _, err := srv.Open(); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Open after Close: %v", err)
		}
	})
}

// TestSubmitRejectsMalformedAndMismatched covers the validation edge.
func TestSubmitRejectsMalformedAndMismatched(t *testing.T) {
	v := makeTestVideo(8, 1)
	chunk := encodeTestVideo(t, v)
	srv, err := NewServer(Config{MaxSessions: 1, Workers: 1, NewSegmenter: oracleFor(v)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	s, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), []byte{1, 2, 3}); err == nil {
		t.Fatal("malformed chunk must be rejected at submit")
	}
	if _, err := s.Submit(context.Background(), chunk); err != nil {
		t.Fatal(err)
	}
	other := video.Generate(video.SceneSpec{
		Name: "other", W: 32, H: 32, Frames: 6, Seed: 1,
		Objects: []video.ObjectSpec{{Shape: video.ShapeDisk, Radius: 6, X: 12, Y: 12, Intensity: 200, Foreground: true}},
	})
	if _, err := s.Submit(context.Background(), encodeTestVideo(t, other)); err == nil {
		t.Fatal("geometry mismatch must be rejected")
	}
	s.Close()
	if _, err := s.Submit(context.Background(), chunk); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Submit on closed session: %v", err)
	}
}

// TestOpenLoopLoadGen exercises the paced submission path.
func TestOpenLoopLoadGen(t *testing.T) {
	v := makeTestVideo(10, 1)
	chunk := encodeTestVideo(t, v)
	srv, err := NewServer(Config{MaxSessions: 4, Workers: 2, NewSegmenter: oracleFor(v)})
	if err != nil {
		t.Fatal(err)
	}
	gen := &LoadGen{
		Server:   srv,
		Streams:  3,
		Interval: time.Millisecond,
		Chunks:   func(int) [][]byte { return [][]byte{chunk, chunk, chunk} },
	}
	rep, err := gen.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 3*3*10 {
		t.Fatalf("open-loop served %d frames, want %d", rep.Frames, 90)
	}
	if rep.Admitted != 3 || rep.AdmissionRejects != 0 {
		t.Fatalf("admission: %+v", rep)
	}
}
