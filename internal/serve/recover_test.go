package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// truncateChunk cuts an encoded chunk mid-payload: the header survives (so
// admission passes and the header's frame count is charged), and the
// decoder runs off the end of the entropy stream while serving — the
// deterministic mid-serve failure the recovery path is built for.
func truncateChunk(t *testing.T, chunk []byte) []byte {
	t.Helper()
	info, err := codec.ProbeStream(chunk)
	if err != nil {
		t.Fatal(err)
	}
	cut := info.HeaderBytes + (len(chunk)-info.HeaderBytes)/2
	bad := chunk[:cut]
	if _, err := codec.ProbeStream(bad); err != nil {
		t.Fatalf("truncated chunk no longer passes admission: %v", err)
	}
	return bad
}

// TestPoisonedSessionRecovers is the regression test for the quarantine
// path: a session that fails a chunk mid-serve must serve the next valid
// chunk on the same session bit-identically to a fresh session — no stale
// decoder or reference-window state may leak across the failure.
func TestPoisonedSessionRecovers(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	bad := truncateChunk(t, chunk)

	serverObs := obs.New()
	requireNoGoroutineLeak(t, func() {
		srv, err := NewServer(Config{
			MaxSessions: 2, Workers: 2, NewSegmenter: oracleFor(v), Obs: serverObs,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := srv.Open()
		if err != nil {
			t.Fatal(err)
		}
		c1, err := s.Submit(context.Background(), bad)
		if err != nil {
			t.Fatalf("truncated chunk rejected at admission, want mid-serve failure: %v", err)
		}
		_, werr := c1.Wait(context.Background())
		if werr == nil {
			t.Fatal("truncated chunk served without error")
		}
		var ce *ChunkError
		if !errors.As(werr, &ce) || ce.Class != core.ClassMalformed {
			t.Fatalf("chunk error %v, want *ChunkError with class malformed", werr)
		}
		if !errors.Is(werr, codec.ErrBitstream) {
			t.Fatalf("chunk error %v does not wrap codec.ErrBitstream", werr)
		}

		// Same session, valid chunk: must succeed and match a fresh session.
		c2, err := s.Submit(context.Background(), chunk)
		if err != nil {
			t.Fatalf("valid chunk after failure: %v", err)
		}
		got, err := c2.Wait(context.Background())
		if err != nil {
			t.Fatalf("valid chunk after failure did not serve: %v", err)
		}

		fresh, err := srv.Open()
		if err != nil {
			t.Fatal(err)
		}
		cf, err := fresh.Submit(context.Background(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cf.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("recovered session served %d frames, fresh session %d", len(got), len(want))
		}
		for i := range got {
			// The failed chunk still advances the session's display offset
			// (its header promised frames); masks must be bit-identical.
			if got[i].Display != want[i].Display+c1.Frames() {
				t.Fatalf("frame %d: display %d, want %d", i, got[i].Display, want[i].Display+c1.Frames())
			}
			if got[i].Type != want[i].Type || got[i].Dropped != want[i].Dropped {
				t.Fatalf("frame %d: type/dropped diverge from fresh session", i)
			}
			if (got[i].Mask == nil) != (want[i].Mask == nil) ||
				(got[i].Mask != nil && !bytes.Equal(got[i].Mask.Pix, want[i].Mask.Pix)) {
				t.Fatalf("frame %d: mask differs from fresh session after recovery", i)
			}
		}

		rep := s.Metrics()
		if rep.Counters[obs.CounterDecodeErrors.String()] != 1 {
			t.Fatalf("decode-errors counter = %d, want 1", rep.Counters[obs.CounterDecodeErrors.String()])
		}
		if rep.Counters[obs.CounterResyncs.String()] != 1 {
			t.Fatalf("resyncs counter = %d, want 1", rep.Counters[obs.CounterResyncs.String()])
		}
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if serverObs.Snapshot().Counters[obs.CounterDecodeErrors.String()] != 1 {
		t.Fatal("server-wide decode-errors counter not aggregated")
	}
}

// TestBreakerTripsAndResets: BreakerThreshold consecutive failures trip the
// breaker (submits bounce with ErrSessionBroken for the backoff window); a
// successful chunk afterwards fully closes it again.
func TestBreakerTripsAndResets(t *testing.T) {
	v := makeTestVideo(12, 1.5)
	chunk := encodeTestVideo(t, v)
	bad := truncateChunk(t, chunk)

	srv, err := NewServer(Config{
		MaxSessions: 1, Workers: 1, NewSegmenter: oracleFor(v), Obs: obs.New(),
		BreakerThreshold: 2, BreakerBackoff: 200 * time.Millisecond, BreakerMaxTrips: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	s, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	failOnce := func() {
		t.Helper()
		c, err := s.Submit(context.Background(), bad)
		if err != nil {
			t.Fatalf("bad chunk rejected at admission: %v", err)
		}
		if _, werr := c.Wait(context.Background()); werr == nil {
			t.Fatal("bad chunk served cleanly")
		}
	}
	failOnce()
	failOnce() // second consecutive failure: trips the breaker
	if _, err := s.Submit(context.Background(), chunk); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("submit during backoff: %v, want ErrSessionBroken", err)
	}
	if got := s.Metrics().Counters[obs.CounterBreakerTrips.String()]; got != 1 {
		t.Fatalf("breaker-trips counter = %d, want 1", got)
	}
	// The window expires; a clean chunk must go through and reset the
	// breaker so the next single failure does not re-trip it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := s.Submit(context.Background(), chunk)
		if err == nil {
			if _, werr := c.Wait(context.Background()); werr != nil {
				t.Fatalf("clean chunk after backoff failed: %v", werr)
			}
			break
		}
		if !errors.Is(err, ErrSessionBroken) {
			t.Fatalf("submit after backoff: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never released after its backoff window")
		}
		time.Sleep(10 * time.Millisecond)
	}
	failOnce() // one failure after a success: below threshold again
	if _, err := s.Submit(context.Background(), chunk); err != nil {
		t.Fatalf("breaker re-tripped after a single post-success failure: %v", err)
	}
}

// TestBreakerForceCloses: a stream that keeps failing across backoff
// windows is cut off — the session drains, queued chunks fail with
// ErrSessionBroken, and the session retires from the server.
func TestBreakerForceCloses(t *testing.T) {
	v := makeTestVideo(12, 1.5)
	chunk := encodeTestVideo(t, v)
	bad := truncateChunk(t, chunk)

	srv, err := NewServer(Config{
		MaxSessions: 1, Workers: 1, NewSegmenter: oracleFor(v), Obs: obs.New(),
		BreakerThreshold: 1, BreakerBackoff: time.Nanosecond, BreakerMaxTrips: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	s, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	// Each failure trips (threshold 1); the second trip exceeds
	// BreakerMaxTrips and force-closes. The 1ns backoff never rejects.
	for i := 0; i < 2; i++ {
		c, err := s.Submit(context.Background(), bad)
		if err != nil {
			t.Fatalf("bad chunk %d rejected at admission: %v", i, err)
		}
		if _, werr := c.Wait(context.Background()); werr == nil {
			t.Fatalf("bad chunk %d served cleanly", i)
		}
	}
	if _, err := s.Submit(context.Background(), chunk); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("submit after force-close: %v, want ErrSessionClosed", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("force-closed session never retired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Obs().Snapshot().Counters[obs.CounterBreakerTrips.String()]; got != 2 {
		t.Fatalf("server breaker-trips counter = %d, want 2", got)
	}
}

// TestBreakerFailsQueuedChunks: when the force-close lands while chunks are
// still queued behind the poisoned ones, those tickets resolve with
// ErrSessionBroken instead of hanging. A gated segmenter holds the first
// (clean) chunk so the rest queue deterministically before any failure.
func TestBreakerFailsQueuedChunks(t *testing.T) {
	v := makeTestVideo(12, 1.5)
	chunk := encodeTestVideo(t, v)
	bad := truncateChunk(t, chunk)

	gate := make(chan struct{})
	srv, err := NewServer(Config{
		MaxSessions: 1, MaxQueuedFrames: 256, Workers: 1, Obs: obs.New(),
		NewSegmenter: func(id string) segment.Segmenter {
			return &gateSegmenter{gate: gate, inner: segment.NewOracle(id, v.Masks, 0, 0, 1)}
		},
		BreakerThreshold: 1, BreakerBackoff: time.Nanosecond, BreakerMaxTrips: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	s, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	submit := func(data []byte) *Chunk {
		t.Helper()
		c, err := s.Submit(context.Background(), data)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return c
	}
	c0 := submit(chunk) // blocks in the gated segmenter
	c1 := submit(bad)   // trip 1 (threshold 1)
	c2 := submit(bad)   // trip 2 > max trips: force-close
	c3 := submit(chunk) // still queued at force-close time
	close(gate)
	if _, err := c0.Wait(context.Background()); err != nil {
		t.Fatalf("gated clean chunk failed: %v", err)
	}
	for i, c := range []*Chunk{c1, c2} {
		if _, err := c.Wait(context.Background()); err == nil {
			t.Fatalf("bad chunk %d served cleanly", i+1)
		}
	}
	_, err = c3.Wait(context.Background())
	if !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("queued chunk after force-close: %v, want ErrSessionBroken", err)
	}
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Class != core.ClassMalformed {
		t.Fatalf("queued-chunk error %v lacks the tripping failure's class", err)
	}
}

// poisonSegmenter is an NN-L that takes its session down one of two ways:
// it panics outright (nnl), or it returns an undersized anchor mask, which
// MV reconstruction tolerates (reference reads are clamped) and NN-S's
// input packing then indexes out of range — a panic inside the refiner.
type poisonSegmenter struct {
	nnl   bool
	inner segment.Segmenter
}

func (p *poisonSegmenter) Name() string { return p.inner.Name() }
func (p *poisonSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	if p.nnl {
		panic("poisoned NN-L")
	}
	return video.NewMask(f.W/2, f.H/2)
}

// TestModelPanicIsConfined pins the serving path's panic containment with
// and without the batcher: a model panic in one session's NN-L or NN-S
// resolves that chunk with an internal-class *ChunkError — it neither
// unwinds the worker (the process survives to serve the rest) nor touches a
// concurrent healthy session, whose masks stay byte-identical to the serial
// reference — and Close leaves no goroutine behind.
func TestModelPanicIsConfined(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	ref := serialReference(t, v, chunk, nns)

	for _, maxBatch := range []int{0, 4} {
		for _, where := range []string{"nn-l", "nn-s"} {
			t.Run(fmt.Sprintf("batch%d/%s", maxBatch, where), func(t *testing.T) {
				requireNoGoroutineLeak(t, func() {
					opened := 0
					srv, err := NewServer(Config{
						MaxSessions: 2,
						Workers:     4,
						MaxBatch:    maxBatch,
						NNS:         nns,
						NewSegmenter: func(id string) segment.Segmenter {
							opened++
							if opened == 1 {
								return &poisonSegmenter{nnl: where == "nn-l", inner: oracleFor(v)(id)}
							}
							return oracleFor(v)(id)
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					poisoned, err := srv.Open()
					if err != nil {
						t.Fatal(err)
					}
					healthy, err := srv.Open()
					if err != nil {
						t.Fatal(err)
					}
					cp, err := poisoned.Submit(context.Background(), chunk)
					if err != nil {
						t.Fatal(err)
					}
					ch, err := healthy.Submit(context.Background(), chunk)
					if err != nil {
						t.Fatal(err)
					}

					_, perr := cp.Wait(context.Background())
					var ce *ChunkError
					if !errors.As(perr, &ce) || ce.Class != core.ClassInternal {
						t.Fatalf("poisoned chunk resolved with %v, want *ChunkError of class internal", perr)
					}
					got, err := ch.Wait(context.Background())
					if err != nil {
						t.Fatalf("healthy session failed beside a panicking one: %v", err)
					}
					if len(got) != len(ref) {
						t.Fatalf("healthy session served %d frames, want %d", len(got), len(ref))
					}
					for i, r := range got {
						if r.Mask == nil || !bytes.Equal(r.Mask.Pix, ref[i].Mask.Pix) {
							t.Fatalf("healthy frame %d diverges from the serial reference", i)
						}
					}
					if err := srv.Close(context.Background()); err != nil {
						t.Fatal(err)
					}
				})
			})
		}
	}
}
