package serve

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
)

// TestBatchedMasksBitIdenticalToSerial is the differential determinism
// gate of the dynamic batching engine: for every batch size and several
// worker budgets, masks served through the shared batcher must equal the
// standalone serial run byte-for-byte — batching adds scheduling, never
// arithmetic. Runs under -race via the Makefile matrix.
func TestBatchedMasksBitIdenticalToSerial(t *testing.T) {
	v := makeTestVideo(18, 1.5)
	chunk := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	ref := serialReference(t, v, chunk, nns)

	cases := []struct {
		name     string
		maxBatch int
		workers  int // 0 = default (raised to MaxBatch)
		streams  int
	}{
		{"batch1-bypass", 1, 2, 4},
		{"batch2", 2, 0, 4},
		{"batch4", 4, 4, 6},
		{"batch8", 8, 0, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serverObs := obs.New()
			srv, err := NewServer(Config{
				MaxSessions:  tc.streams,
				Workers:      tc.workers,
				MaxBatch:     tc.maxBatch,
				MaxBatchWait: time.Millisecond,
				NewSegmenter: oracleFor(v),
				NNS:          nns,
				Obs:          serverObs,
			})
			if err != nil {
				t.Fatal(err)
			}
			results := make(map[int][][]FrameResult)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for i := 0; i < tc.streams; i++ {
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

			for i := 0; i < tc.streams; i++ {
				if len(results[i]) != 2 {
					t.Fatalf("stream %d served %d chunks, want 2", i, len(results[i]))
				}
				for c, res := range results[i] {
					if len(res) != len(ref) {
						t.Fatalf("stream %d chunk %d: %d frames, want %d", i, c, len(res), len(ref))
					}
					for j, fr := range res {
						want := ref[j]
						if fr.Display != c*len(ref)+want.Display || fr.Type != want.Type || fr.Dropped {
							t.Fatalf("stream %d chunk %d frame %d: sequencing diverges", i, c, j)
						}
						if !bytes.Equal(fr.Mask.Pix, want.Mask.Pix) {
							t.Fatalf("stream %d chunk %d frame %d: batched mask differs from serial (MaxBatch=%d)",
								i, c, j, tc.maxBatch)
						}
					}
				}
			}

			snap := serverObs.Snapshot()
			items := snap.Counters[obs.CounterBatchItems.String()]
			if tc.maxBatch <= 1 {
				if items != 0 {
					t.Fatalf("MaxBatch=1 must bypass the batcher, saw %d batched items", items)
				}
				return
			}
			bFrames := 0
			for _, m := range ref {
				if m.Type == codec.BFrame {
					bFrames++
				}
			}
			wantItems := int64(tc.streams * 2 * bFrames)
			if items != wantItems {
				t.Fatalf("batch-items = %d, want %d (every refined B-frame batched, no anchor)", items, wantItems)
			}
			occ := snap.Hist("batch-occupancy")
			if occ == nil || occ.Count == 0 {
				t.Fatal("no batch-occupancy histogram recorded")
			}
			if occ.Max > int64(tc.maxBatch) {
				t.Fatalf("occupancy max %d exceeds MaxBatch %d", occ.Max, tc.maxBatch)
			}
			flushes := snap.Counters[obs.CounterBatchFlushFull.String()] +
				snap.Counters[obs.CounterBatchFlushTimer.String()] +
				snap.Counters[obs.CounterBatchFlushStall.String()] +
				snap.Counters[obs.CounterBatchFlushDrain.String()]
			if flushes == 0 {
				t.Fatal("no flush-reason counters recorded")
			}
		})
	}
}

// TestBatchWorkerSizing pins the Config interplay: with refinement on,
// defaulted Workers rise to MaxBatch and explicit Workers cap MaxBatch;
// MaxBatch<=1 builds no batcher; and without a refinement network there is
// nothing to fuse, so MaxBatch neither builds a batcher nor raises Workers.
func TestBatchWorkerSizing(t *testing.T) {
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	c := Config{MaxBatch: 8, NNS: nns}.withDefaults()
	if c.Workers < 8 {
		t.Fatalf("defaulted Workers = %d, want >= MaxBatch 8", c.Workers)
	}
	c = Config{MaxBatch: 8, Workers: 2, NNS: nns}.withDefaults()
	if c.MaxBatch != 2 {
		t.Fatalf("explicit Workers=2 left MaxBatch=%d, want clamp to 2", c.MaxBatch)
	}
	if got, want := (Config{MaxBatch: 64}).withDefaults().Workers, (Config{}).withDefaults().Workers; got != want {
		t.Fatalf("MaxBatch without NN-S moved defaulted Workers to %d, want %d", got, want)
	}
	for _, cfg := range []Config{{MaxBatch: 1, NNS: nns}, {MaxBatch: 4}} {
		cfg.NewSegmenter = oracleFor(makeTestVideo(2, 1))
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if srv.batcher != nil {
			t.Fatalf("MaxBatch=%d refine=%t built a batcher", cfg.MaxBatch, cfg.NNS != nil)
		}
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
