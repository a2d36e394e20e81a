package core

import (
	"errors"
	"fmt"
	"testing"

	"vrdann/internal/segment"
)

func TestStreamingPipelineMatchesBatchPipeline(t *testing.T) {
	v := makeTestVideo(18, 1.2)
	stream := encodeTestVideo(t, v)
	oracle := segment.NewOracle("oracle", v.Masks, 0.05, 3, 1)

	batch := &Pipeline{NNL: oracle, Refine: false}
	bres, err := batch.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}

	sp := &StreamingPipeline{NNL: oracle, Refine: false}
	got := make(map[int]MaskOut)
	if err := sp.Run(stream, func(m MaskOut) error {
		got[m.Display] = m
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != v.Len() {
		t.Fatalf("emitted %d masks, want %d", len(got), v.Len())
	}
	for d := range bres.Masks {
		if segment.IoU(got[d].Mask, bres.Masks[d]) != 1 {
			t.Fatalf("frame %d: streaming mask differs from batch mask", d)
		}
	}
}

func TestStreamingPipelineBoundedWorkingSet(t *testing.T) {
	v := makeTestVideo(40, 0.8)
	stream := encodeTestVideo(t, v)
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1), Refine: false}
	maxSegs, err := sp.RunInstrumented(stream, func(MaskOut) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// The working set must not grow with the sequence length: bounded by the
	// search interval plus flanking anchors.
	if maxSegs > 9 {
		t.Fatalf("working set %d, want bounded", maxSegs)
	}
	if maxSegs < 2 {
		t.Fatalf("working set %d implausibly small", maxSegs)
	}
}

func TestStreamingPipelineEmitAbort(t *testing.T) {
	v := makeTestVideo(12, 1)
	stream := encodeTestVideo(t, v)
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1)}
	boom := errors.New("boom")
	n := 0
	err := sp.Run(stream, func(MaskOut) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 3 {
		t.Fatalf("emit called %d times, want 3", n)
	}
}

func TestStreamingPipelineRejectsGarbage(t *testing.T) {
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", nil, 0, 0, 1)}
	if err := sp.Run([]byte{1, 2}, func(MaskOut) error { return nil }); err == nil {
		t.Fatal("expected header error")
	}
}

func TestDisplayOrderReordering(t *testing.T) {
	var seen []int
	emit := DisplayOrder(func(m MaskOut) error {
		seen = append(seen, m.Display)
		return nil
	})
	// Feed decode-order-ish sequence 0,4,1,2,3,5.
	for _, d := range []int{0, 4, 1, 2, 3, 5} {
		if err := emit(MaskOut{Display: d}); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if len(seen) != len(want) {
		t.Fatalf("emitted %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("order %v, want %v", seen, want)
		}
	}
}

func TestStreamingPipelineWithDisplayOrder(t *testing.T) {
	v := makeTestVideo(16, 1.5)
	stream := encodeTestVideo(t, v)
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1)}
	next := 0
	err := sp.Run(stream, DisplayOrder(func(m MaskOut) error {
		if m.Display != next {
			t.Fatalf("got display %d, want %d", m.Display, next)
		}
		next++
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if next != 16 {
		t.Fatalf("emitted %d frames in order", next)
	}
}

// TestStreamingParallelEmitErrorAborts pins that a failing emit aborts the
// overlapped run exactly where it aborts the serial one: same error, same
// emitted prefix, same working-set maximum through the failing frame.
func TestStreamingParallelEmitErrorAborts(t *testing.T) {
	v := makeTestVideo(24, 1.5)
	stream := encodeTestVideo(t, v)
	oracle := segment.NewOracle("oracle", v.Masks, 0, 0, 1)
	boom := errors.New("boom")
	run := func(workers int) (int, int, error) {
		n := 0
		maxSegs, err := (&StreamingPipeline{NNL: oracle, Workers: workers}).RunInstrumented(stream, func(m MaskOut) error {
			if n == 7 {
				return fmt.Errorf("frame %d: %w", m.Display, boom)
			}
			n++
			return nil
		})
		return maxSegs, n, err
	}
	refMax, refN, refErr := run(1)
	if !errors.Is(refErr, boom) {
		t.Fatalf("serial: error = %v, want boom", refErr)
	}
	gotMax, gotN, gotErr := run(4)
	if !errors.Is(gotErr, boom) {
		t.Fatalf("parallel: error = %v, want boom", gotErr)
	}
	if gotErr.Error() != refErr.Error() {
		t.Fatalf("error diverges: %q vs %q", gotErr, refErr)
	}
	if gotN != refN || gotMax != refMax {
		t.Fatalf("parallel emitted %d frames (maxSegs %d), serial %d (%d)", gotN, gotMax, refN, refMax)
	}
}
