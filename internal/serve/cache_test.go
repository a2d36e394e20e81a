package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// contentVideo builds one distinct piece of content per index: same
// geometry, different motion, so chunk bytes, digests and ground-truth
// masks all differ between contents.
func contentVideo(c int) *video.Video {
	return makeTestVideo(18, 1.5+float64(c))
}

// contentSegmenters returns a NewSegmenter that assigns sessions to
// contents by open order: session k serves content k mod contents. The
// oracle label depends only on the content, so sessions serving equal
// bytes carry equal model fingerprints — the cache-sharing contract.
func contentSegmenters(vids []*video.Video) func(id string) segment.Segmenter {
	var opened int
	var mu sync.Mutex
	return func(string) segment.Segmenter {
		mu.Lock()
		c := opened % len(vids)
		opened++
		mu.Unlock()
		return segment.NewOracle(fmt.Sprintf("oracle-c%d", c), vids[c].Masks, 0.05, 2, 7)
	}
}

// TestCacheServedMasksBitIdentical is the tentpole differential test:
// across {1,2,4,8} viewers per content and {1,2} distinct contents, every
// frame served through the content cache is byte-identical to a standalone
// serial run, and the single-flight accounting is exact — one miss per
// distinct (content, frame) key, a hit for every other serve.
func TestCacheServedMasksBitIdentical(t *testing.T) {
	const frames, chunksPer = 18, 2
	for _, contents := range []int{1, 2} {
		for _, viewers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%dcontents-%dviewers", contents, viewers), func(t *testing.T) {
				nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
				vids := make([]*video.Video, contents)
				chunks := make([][]byte, contents)
				ref := make(map[int][]FrameResult)
				for c := 0; c < contents; c++ {
					vids[c] = contentVideo(c)
					chunks[c] = encodeTestVideo(t, vids[c])
					for _, m := range serialReference(t, vids[c], chunks[c], nns) {
						ref[c] = append(ref[c], FrameResult{Display: m.Display, Type: m.Type, Mask: m.Mask})
					}
				}

				col := obs.New()
				srv, err := NewServer(Config{
					MaxSessions:  contents * viewers,
					Workers:      4,
					NewSegmenter: contentSegmenters(vids),
					NNS:          nns,
					CacheBytes:   64 << 20,
					Obs:          col,
				})
				if err != nil {
					t.Fatal(err)
				}
				sessions := make([]*Session, contents*viewers)
				for i := range sessions {
					if sessions[i], err = srv.Open(); err != nil {
						t.Fatal(err)
					}
				}
				results := make([][][]FrameResult, len(sessions))
				var wg sync.WaitGroup
				for i, s := range sessions {
					wg.Add(1)
					go func(i int, s *Session) {
						defer wg.Done()
						defer s.Close()
						for c := 0; c < chunksPer; c++ {
							ck, err := s.Submit(context.Background(), chunks[i%contents])
							if err != nil {
								t.Errorf("session %d chunk %d: %v", i, c, err)
								return
							}
							res, err := ck.Wait(context.Background())
							if err != nil {
								t.Errorf("session %d chunk %d: %v", i, c, err)
								return
							}
							results[i] = append(results[i], res)
						}
					}(i, s)
				}
				wg.Wait()
				if err := srv.Close(context.Background()); err != nil {
					t.Fatal(err)
				}

				for i := range sessions {
					want := ref[i%contents]
					for c, res := range results[i] {
						if len(res) != len(want) {
							t.Fatalf("session %d chunk %d: %d frames, want %d", i, c, len(res), len(want))
						}
						for j, fr := range res {
							w := want[j]
							if fr.Display != c*len(want)+w.Display || fr.Type != w.Type || fr.Dropped {
								t.Fatalf("session %d chunk %d frame %d: display/type/drop diverge", i, c, j)
							}
							if !bytes.Equal(fr.Mask.Pix, w.Mask.Pix) {
								t.Fatalf("session %d chunk %d frame %d: cached serving diverges from serial run", i, c, j)
							}
						}
					}
				}

				// Single-flight accounting: each of the contents×frames keys is
				// computed exactly once (a miss); every other serve is a hit.
				total := int64(len(sessions) * chunksPer * frames)
				wantMiss := int64(contents * frames)
				snap := col.Snapshot()
				if got := snap.Counters[obs.CounterCacheMisses.String()]; got != wantMiss {
					t.Fatalf("misses = %d, want %d", got, wantMiss)
				}
				if got := snap.Counters[obs.CounterCacheHits.String()]; got != total-wantMiss {
					t.Fatalf("hits = %d, want %d", got, total-wantMiss)
				}
				if snap.Counters[obs.CounterCacheBytesSaved.String()] <= 0 {
					t.Fatal("bytes-saved not recorded")
				}
			})
		}
	}
}

// TestForceCloseMirrorsQuantCounters pins the settle-time counter mirror:
// block counters recorded by a step that then fails must still reach the
// server-wide collector, so /metrics totals equal the per-session sums even
// for chunks that failed mid-serve. The open cache fill of the failed step
// must be abandoned, not published.
//
// Construction: the session's NN-L returns undersized anchor masks, so the
// first dirty B-frame's NN-S panics — after StepPrepare counted that
// frame's dirty and skipped blocks (threshold 1 keeps almost every block
// dirty). The per-frame mirror runs only after a step succeeds, so only the
// mirror in completeLocked can forward the failed step's counts.
func TestForceCloseMirrorsQuantCounters(t *testing.T) {
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	v := contentVideo(0)
	chunk := encodeTestVideo(t, v)

	col := obs.New()
	srv, err := NewServer(Config{
		MaxSessions: 1,
		Workers:     1,
		NewSegmenter: func(id string) segment.Segmenter {
			return &poisonSegmenter{inner: oracleFor(v)(id)}
		},
		NNS:           nns,
		SkipResidual:  true,
		SkipThreshold: 1,
		CacheBytes:    64 << 20,
		Obs:           col,
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
	_, err = ch.Wait(context.Background())
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Class != core.ClassInternal {
		t.Fatalf("chunk resolved with %v, want an NN-S panic of class internal", err)
	}
	s.Close()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The fix under test: server-wide totals equal the session's own even
	// though its last counted step never completed.
	snap, own := col.Snapshot(), s.Metrics()
	for _, ctr := range []obs.Counter{obs.CounterQuantBlocksDirty, obs.CounterQuantBlocksSkipped, obs.CounterQuantBlocksUnknown} {
		if got, want := snap.Counters[ctr.String()], own.Counters[ctr.String()]; got != want {
			t.Fatalf("%s: server total %d != session count %d", ctr.String(), got, want)
		}
	}
	if own.Counters[obs.CounterQuantBlocksDirty.String()] == 0 {
		t.Fatal("scenario failed to record any dirty blocks")
	}
	// The failed step's open fill was invalidated, not published.
	if got := snap.Counters[obs.CounterCacheFillAborts.String()]; got < 1 {
		t.Fatalf("fill-aborts = %d, want >= 1", got)
	}
}

// TestCorruptChunkCannotPoisonCache: a corrupted copy of popular content
// hashes to its own keys, so a session serving it — whether it fails or
// not — never perturbs what clean sessions are served.
func TestCorruptChunkCannotPoisonCache(t *testing.T) {
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	v := contentVideo(0)
	chunk := encodeTestVideo(t, v)
	ref := serialReference(t, v, chunk, nns)

	corrupt := append([]byte(nil), chunk...)
	for i := len(corrupt) * 3 / 4; i < len(corrupt)*3/4+8 && i < len(corrupt); i++ {
		corrupt[i] ^= 0xA5
	}

	srv, err := NewServer(Config{
		MaxSessions: 2,
		Workers:     2,
		NewSegmenter: func(string) segment.Segmenter {
			return segment.NewOracle("shared", v.Masks, 0.05, 2, 7)
		},
		NNS:        nns,
		CacheBytes: 64 << 20,
		Obs:        obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sBad, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	// The corrupt copy may fail mid-chunk or decode to garbage — either way
	// whatever it published lives under the corrupt digest's keys.
	if c, err := sBad.Submit(context.Background(), corrupt); err == nil {
		c.Wait(context.Background())
	}
	sBad.Close()

	sClean, err := srv.Open()
	if err != nil {
		t.Fatal(err)
	}
	c, err := sClean.Submit(context.Background(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sClean.Close()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ref) {
		t.Fatalf("clean session served %d frames, want %d", len(res), len(ref))
	}
	for j, fr := range res {
		if !bytes.Equal(fr.Mask.Pix, ref[j].Mask.Pix) {
			t.Fatalf("frame %d: clean session diverges after corrupt submission", j)
		}
	}
}

// TestBroadcastFanOut: one backing session decodes a chunk once; every
// attached viewer receives the full display-ordered result set, the fanout
// counter records frames × viewers, and the viewer gauge tracks
// attach/detach.
func TestBroadcastFanOut(t *testing.T) {
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	v := contentVideo(0)
	chunk := encodeTestVideo(t, v)
	ref := serialReference(t, v, chunk, nns)

	col := obs.New()
	srv, err := NewServer(Config{
		MaxSessions: 2,
		Workers:     2,
		NewSegmenter: func(string) segment.Segmenter {
			return segment.NewOracle("bcast", v.Masks, 0.05, 2, 7)
		},
		NNS:        nns,
		CacheBytes: 64 << 20,
		Obs:        col,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.OpenBroadcast()
	if err != nil {
		t.Fatal(err)
	}
	const nViewers = 4
	got := make([][]FrameResult, nViewers)
	views := make([]*Viewer, nViewers)
	for i := 0; i < nViewers; i++ {
		i := i
		views[i] = b.Attach(func(r FrameResult) { got[i] = append(got[i], r) })
	}
	if b.Viewers() != nViewers {
		t.Fatalf("Viewers() = %d", b.Viewers())
	}
	res, err := b.Submit(context.Background(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ref) {
		t.Fatalf("broadcast served %d frames, want %d", len(res), len(ref))
	}
	for i := 0; i < nViewers; i++ {
		if len(got[i]) != len(ref) {
			t.Fatalf("viewer %d received %d frames, want %d", i, len(got[i]), len(ref))
		}
		for j := range got[i] {
			if !bytes.Equal(got[i][j].Mask.Pix, ref[j].Mask.Pix) {
				t.Fatalf("viewer %d frame %d: mask diverges", i, j)
			}
		}
	}
	snap := col.Snapshot()
	if fan := snap.Counters[obs.CounterBroadcastFrames.String()]; fan != int64(len(ref)*nViewers) {
		t.Fatalf("fanout counter = %d, want %d", fan, len(ref)*nViewers)
	}
	views[0].Detach()
	if b.Viewers() != nViewers-1 {
		t.Fatalf("Viewers() after detach = %d", b.Viewers())
	}
	var gv int64 = -1
	for _, g := range col.Snapshot().Gauges {
		if g.Name == obs.GaugeBroadcastViewers.String() {
			gv = g.Current
		}
	}
	if gv != nViewers-1 {
		t.Fatalf("broadcast-viewers gauge = %d, want %d", gv, nViewers-1)
	}
	b.Close()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
