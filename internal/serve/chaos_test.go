// The chaos soak lives in an external test package: it drives serve through
// internal/fault/chaos, which itself imports serve — an in-package test
// would close that cycle. It also keeps the soak honest: everything here
// goes through the public serving API.
package serve_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/fault"
	"vrdann/internal/fault/chaos"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
	"vrdann/internal/video"
)

// chaosVideo mirrors the in-package test scene; the oracle segmenter
// reseeds per call, so any two sessions over the same chunk produce
// identical masks — the property that makes bit-exact comparison valid.
func chaosVideo(frames int) *video.Video {
	return video.Generate(video.SceneSpec{
		Name: "chaos", W: 64, H: 48, Frames: frames, Seed: 42, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 10, X: 24, Y: 24,
			VX: 1.5, VY: 0.75, Intensity: 220, Foreground: true,
		}},
	})
}

// TestChaosSoak is the acceptance run for fault hardening: 8 concurrent
// sessions, 20% of chunks corrupted (bit flips, truncation, garbled
// headers, splices), under -race via the Makefile chaos-smoke target.
// Healthy sessions must stay bit-identical to a clean serial run, poisoned
// sessions must resync or close with a classified error, nothing may hang,
// and the run must leak no goroutines. The nns leg serves with NN-S
// refinement on, so poisoned sessions' refinements share the worker pool
// with the healthy sessions they must not disturb.
func TestChaosSoak(t *testing.T) {
	for _, leg := range []struct {
		name string
		nns  *nn.RefineNet
	}{
		{"no-nns", nil},
		{"nns", nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)},
	} {
		t.Run(leg.name, func(t *testing.T) { chaosSoak(t, leg.nns) })
	}
}

// chaosSoak is one leg of TestChaosSoak; a nil nns serves without NN-S.
func chaosSoak(t *testing.T, nns *nn.RefineNet) {
	v := chaosVideo(18)
	st, err := codec.Encode(v, codec.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	chunk := st.Data

	// The clean serial run is the gold standard every healthy chunk must
	// reproduce exactly.
	sp := &core.StreamingPipeline{
		NNL: segment.NewOracle("ref", v.Masks, 0.05, 2, 7),
		NNS: nns, Refine: nns != nil, Workers: 1,
	}
	var ref []core.MaskOut
	if err := sp.Run(chunk, core.DisplayOrder(func(m core.MaskOut) error {
		ref = append(ref, m)
		return nil
	})); err != nil {
		t.Fatal(err)
	}

	const sessions, chunks = 8, 6
	const rate = 0.20
	serverObs := obs.New()

	runtime.GC()
	before := runtime.NumGoroutine()

	srv, err := serve.NewServer(serve.Config{
		MaxSessions: sessions,
		Workers:     4,
		NewSegmenter: func(id string) segment.Segmenter {
			return segment.NewOracle(id, v.Masks, 0.05, 2, 7)
		},
		NNS:              nns,
		Obs:              serverObs,
		BreakerThreshold: 2,
		BreakerBackoff:   5 * time.Millisecond,
		BreakerMaxTrips:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := chaos.Run(context.Background(), srv, chaos.Config{
		Sessions: sessions, Chunks: chunks, Chunk: chunk,
		Rate: rate, Seed: 1729, Kinds: fault.AllKinds,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	if res.Hung != 0 {
		t.Fatalf("%d chunk tickets never resolved — serving path hung", res.Hung)
	}

	healthy, poisoned, midServeFailures := 0, 0, 0
	for si := range res.Sessions {
		rep := &res.Sessions[si]
		if rep.OpenErr != nil {
			t.Fatalf("session %d failed to open: %v", si, rep.OpenErr)
		}
		if !rep.Poisoned {
			healthy++
		} else {
			poisoned++
		}
		for ci, out := range rep.Outcomes {
			at := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("session %d (%s) chunk %d [%s]: "+format,
					append([]any{si, rep.ID, ci, out.Kind}, args...)...)
			}
			switch {
			case out.SubmitErr != nil:
				// Admission rejects are legal for corrupted chunks (garbled
				// header) and, on poisoned sessions, for clean chunks caught
				// by breaker fallout.
				if !out.Corrupted && !rep.Poisoned {
					at("healthy chunk rejected at admission: %v", out.SubmitErr)
				}
				if !out.Corrupted &&
					!errors.Is(out.SubmitErr, serve.ErrSessionBroken) &&
					!errors.Is(out.SubmitErr, serve.ErrSessionClosed) {
					at("clean chunk rejected for a non-breaker reason: %v", out.SubmitErr)
				}
			case out.ServeErr != nil:
				midServeFailures++
				var ce *serve.ChunkError
				if !errors.As(out.ServeErr, &ce) {
					at("serve error not classified: %v", out.ServeErr)
				}
				if ce.Class == core.ClassInternal {
					at("corruption surfaced as an internal error: %v", out.ServeErr)
				}
				if !out.Corrupted && !errors.Is(out.ServeErr, serve.ErrSessionBroken) {
					at("clean chunk failed mid-serve: %v", out.ServeErr)
				}
			case !out.Corrupted:
				// A clean chunk that served must be bit-identical to the
				// reference, session history notwithstanding: that IS the
				// resync guarantee.
				if len(out.Results) != len(ref) {
					at("%d frames served, reference has %d", len(out.Results), len(ref))
				}
				for i, fr := range out.Results {
					if fr.Display != out.Base+ref[i].Display || fr.Type != ref[i].Type {
						at("frame %d sequencing diverges from reference", i)
					}
					if fr.Dropped || fr.Mask == nil ||
						!bytes.Equal(fr.Mask.Pix, ref[i].Mask.Pix) {
						at("frame %d mask diverges from reference", i)
					}
				}
			}
		}
	}
	// The fixed seed must exercise both sides; if it stops doing so after a
	// scene or codec change, pick a new seed rather than weakening checks.
	if healthy == 0 {
		t.Fatal("seed produced no healthy session; comparison coverage lost")
	}
	if poisoned == 0 || midServeFailures == 0 {
		t.Fatalf("seed produced %d poisoned sessions, %d mid-serve failures; fault coverage lost",
			poisoned, midServeFailures)
	}

	rep := serverObs.Snapshot()
	if rep.Counters[obs.CounterDecodeErrors.String()] == 0 {
		t.Fatal("soak produced no decode-errors count despite mid-serve failures")
	}
	if rep.Counters[obs.CounterResyncs.String()] == 0 {
		t.Fatal("soak produced no resyncs count")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after soak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
