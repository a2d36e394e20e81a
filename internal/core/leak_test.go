package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/detect"
	"vrdann/internal/nn"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// requireNoGoroutineLeak runs fn and fails if the process goroutine count
// has not returned to its starting level shortly after — the contract that
// an aborted pipeline run cancels or drains every worker, emitter and
// per-anchor wait it started.
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

func TestStreamingAbortLeaksNoGoroutines(t *testing.T) {
	v := makeTestVideo(24, 1.5)
	stream := encodeTestVideo(t, v)
	oracle := segment.NewOracle("oracle", v.Masks, 0, 0, 1)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	boom := errors.New("boom")
	abortingEmit := func() func(MaskOut) error {
		n := 0
		return func(MaskOut) error {
			n++
			if n == 5 {
				return boom
			}
			return nil
		}
	}
	for _, nw := range []int{1, 4} {
		t.Run("emit-error", func(t *testing.T) {
			requireNoGoroutineLeak(t, func() {
				sp := &StreamingPipeline{NNL: oracle, NNS: nns, Refine: true, Workers: nw}
				if err := sp.Run(stream, abortingEmit()); !errors.Is(err, boom) {
					t.Fatalf("workers=%d: err = %v, want boom", nw, err)
				}
			})
		})
		t.Run("decode-error", func(t *testing.T) {
			requireNoGoroutineLeak(t, func() {
				sp := &StreamingPipeline{NNL: oracle, NNS: nns, Refine: true, Workers: nw}
				// Truncating mid-stream parses the header but fails during
				// frame decode, aborting the run from the decode stage.
				err := sp.Run(stream[:2*len(stream)/3], func(MaskOut) error { return nil })
				if err == nil {
					t.Fatalf("workers=%d: truncated stream must error", nw)
				}
			})
		})
	}
}

func TestBatchParallelAbortLeaksNoGoroutines(t *testing.T) {
	v := makeTestVideo(24, 1.5)
	stream := encodeTestVideo(t, v)
	dec, err := codec.Decode(stream, codec.DecodeSideInfo)
	if err != nil {
		t.Fatal(err)
	}
	bad := corruptBFrame(t, dec, 0, 9999)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	requireNoGoroutineLeak(t, func() {
		p := &Pipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1), NNS: nns, Refine: true, Workers: 4}
		if _, err := p.segmentDecoded(context.Background(), bad); err == nil {
			t.Fatal("corrupted reference must error")
		}
	})
}

// corruptBFrame returns a shallow copy of dec whose n-th motion-carrying
// B-frame (in decode order) references a frame that has no segmentation,
// forcing segment.Reconstruct to fail exactly there. Only the doctored
// frame's Infos entry and MVs slice are copied, so trials stay cheap.
func corruptBFrame(t *testing.T, dec *codec.DecodeResult, n, ref int) *codec.DecodeResult {
	t.Helper()
	cp := *dec
	cp.Infos = append([]codec.FrameInfo(nil), dec.Infos...)
	seen := 0
	for _, d := range dec.Order {
		info := cp.Infos[d]
		if info.Type != codec.BFrame || len(info.MVs) == 0 {
			continue
		}
		if seen == n {
			mvs := append([]codec.MotionVector(nil), info.MVs...)
			mvs[0].Ref = ref
			mvs[0].BiRef = false
			cp.Infos[d].MVs = mvs
			return &cp
		}
		seen++
	}
	t.Fatalf("stream has fewer than %d motion-carrying B-frames", n+1)
	return nil
}

// TestCancelMidRunLeaksNoGoroutines pins the context-cancellation satellite:
// cancelling a run mid-flight — serial or parallel, streaming or batch —
// returns ctx.Err() and leaves no worker, emitter or anchor-stage goroutine
// behind.
func TestCancelMidRunLeaksNoGoroutines(t *testing.T) {
	v := makeTestVideo(24, 1.5)
	stream := encodeTestVideo(t, v)
	oracle := segment.NewOracle("oracle", v.Masks, 0, 0, 1)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)

	for _, nw := range []int{1, 4} {
		t.Run("streaming", func(t *testing.T) {
			requireNoGoroutineLeak(t, func() {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// NN-L runs inline on the decode loop in both modes, so
				// cancelling from it guarantees the loop sees the context
				// fire with frames still undelivered.
				sp := &StreamingPipeline{
					NNL: &cancellingSegmenter{Segmenter: oracle, after: 2, cancel: cancel},
					NNS: nns, Refine: true, Workers: nw,
				}
				err := sp.RunContext(ctx, stream, func(MaskOut) error { return nil })
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", nw, err)
				}
			})
		})
		t.Run("batch-segmentation", func(t *testing.T) {
			requireNoGoroutineLeak(t, func() {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				p := &Pipeline{NNL: &cancellingSegmenter{Segmenter: oracle, after: 2, cancel: cancel},
					NNS: nns, Refine: true, Workers: nw}
				res, err := p.RunSegmentationContext(ctx, stream)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", nw, err)
				}
				if res == nil {
					t.Fatalf("workers=%d: cancelled run must still return the partial result", nw)
				}
			})
		})
	}
	t.Run("batch-detection", func(t *testing.T) {
		requireNoGoroutineLeak(t, func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			det := &cancellingDetector{inner: &gtBoxDetector{v}, after: 2, cancel: cancel}
			_, err := (&Pipeline{Workers: 4}).RunDetectionContext(ctx, stream, det)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	})
	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, nw := range []int{1, 4} {
			requireNoGoroutineLeak(t, func() {
				sp := &StreamingPipeline{NNL: oracle, NNS: nns, Refine: true, Workers: nw}
				emitted := 0
				err := sp.RunContext(ctx, stream, func(MaskOut) error { emitted++; return nil })
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", nw, err)
				}
				if emitted != 0 {
					t.Fatalf("workers=%d: pre-cancelled run emitted %d frames", nw, emitted)
				}
			})
		}
	})
}

// cancellingSegmenter cancels the run's context after its n-th anchor.
type cancellingSegmenter struct {
	segment.Segmenter
	after  int
	n      int
	cancel context.CancelFunc
}

func (c *cancellingSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	m := c.Segmenter.Segment(f, display)
	c.n++
	if c.n == c.after {
		c.cancel()
	}
	return m
}

// cancellingDetector cancels the run's context after its n-th anchor.
type cancellingDetector struct {
	inner  BoxDetector
	after  int
	n      int
	cancel context.CancelFunc
}

func (c *cancellingDetector) Detect(f *video.Frame, display int) []detect.Detection {
	d := c.inner.Detect(f, display)
	c.n++
	if c.n == c.after {
		c.cancel()
	}
	return d
}

func (c *cancellingDetector) Name() string { return c.inner.Name() }
