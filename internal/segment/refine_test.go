package segment

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"vrdann/internal/nn"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// makeJob builds a deterministic refinement job with pseudo-random anchor
// masks and reconstruction codes.
func makeJob(rng *rand.Rand, w, h int) RefineJob {
	prev, next := video.NewMask(w, h), video.NewMask(w, h)
	rec := NewReconMask(w, h)
	for i := range prev.Pix {
		prev.Pix[i] = uint8(rng.Intn(2))
		next.Pix[i] = uint8(rng.Intn(2))
		rec.Pix[i] = uint8(rng.Intn(4))
	}
	return RefineJob{Prev: prev, Rec: rec, Next: next}
}

// TestRefinerBatchOfOneIsTheUnbatchedCase pins the one NN-S executor on
// both tiers: RefineBatch(jobs) is byte-equal to Refine on each job alone
// (on a second Refiner over a clone, so scratch is not shared) across
// batch sizes and a scratch resize; an empty batch is nil, a geometry mix
// panics, and a steady-state Refine allocates only its result.
func TestRefinerBatchOfOneIsTheUnbatchedCase(t *testing.T) {
	const w, h = 12, 8
	net := nn.NewRefineNet(rand.New(rand.NewSource(6)), 8)
	calib := []*tensor.Tensor{Sandwich(makeJob(rand.New(rand.NewSource(3)), w, h).unpack())}
	q, err := nn.NewQuantRefineNet(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name string
		new  func() *Refiner
	}{
		{"float", func() *Refiner { return NewRefiner(net.Clone()) }},
		{"int8", func() *Refiner { return NewQuantRefiner(q.Clone()) }},
	}
	for _, tier := range tiers {
		batched, single := tier.new(), tier.new()
		rng := rand.New(rand.NewSource(21))
		for _, n := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", tier.name, n), func(t *testing.T) {
				jobs := make([]RefineJob, n)
				for i := range jobs {
					jobs[i] = makeJob(rng, w, h)
				}
				got := batched.RefineBatch(jobs)
				if len(got) != n {
					t.Fatalf("got %d masks, want %d", len(got), n)
				}
				for i, j := range jobs {
					want := single.Refine(j.unpack())
					if !bytes.Equal(got[i].Pix, want.Pix) {
						t.Fatalf("job %d: batched mask differs from Refine alone", i)
					}
				}
			})
		}
		t.Run(tier.name+"/empty-and-geometry-mix", func(t *testing.T) {
			if masks := batched.RefineBatch(nil); masks != nil {
				t.Fatalf("empty batch returned %v", masks)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on geometry mix")
				}
			}()
			batched.RefineBatch([]RefineJob{makeJob(rng, 8, 8), makeJob(rng, 16, 8)})
		})
	}

	// Pinned to one worker, as the int8 zero-allocation test in nn is: the
	// par.For fork-join allocates its helpers, and the guard is about the
	// executor's buffers, not the scheduler.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := tiers[0].new()
	j := makeJob(rand.New(rand.NewSource(5)), w, h)
	r.Refine(j.unpack()) // warm the scratch
	// The result: the one-slot mask slice, the mask header, its pixels.
	if allocs := testing.AllocsPerRun(10, func() { r.Refine(j.unpack()) }); allocs > 3 {
		t.Fatalf("steady-state float Refine allocates %.1f objects/run, want only the output mask (3)", allocs)
	}
}

// unpack spreads a job into Refine's (and Sandwich's) argument list.
func (j RefineJob) unpack() (*video.Mask, *ReconMask, *video.Mask) { return j.Prev, j.Rec, j.Next }
