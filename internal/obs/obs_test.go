package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsSafeAndFree(t *testing.T) {
	var c *Collector
	if c.Clock() != 0 {
		t.Fatal("nil Clock must return 0 without touching the wall clock")
	}
	c.Span(StageNNL, 0, 0, 0)
	c.ObserveDur(StageNNL, 0, 0, 0, time.Millisecond)
	c.Count(CounterFrames, 3)
	c.GaugeAdd(GaugeJobQueue, 1)
	c.GaugeSet(GaugeRefWindow, 5)
	c.SetTracer(nil)
	if c.Snapshot() != nil {
		t.Fatal("nil Snapshot must be nil")
	}
	if got := c.Snapshot().Table(); !strings.Contains(got, "disabled") {
		t.Fatalf("nil report table = %q", got)
	}
}

func TestStageAggregation(t *testing.T) {
	c := New()
	durs := []time.Duration{100 * time.Microsecond, 200 * time.Microsecond,
		400 * time.Microsecond, 800 * time.Microsecond, 100 * time.Millisecond}
	for i, d := range durs {
		c.ObserveDur(StageRefine, i, 2, 0, d)
	}
	r := c.Snapshot()
	s := r.Stage("nn-s")
	if s == nil {
		t.Fatal("nn-s stage missing from report")
	}
	if s.Count != int64(len(durs)) {
		t.Fatalf("count = %d, want %d", s.Count, len(durs))
	}
	var want int64
	for _, d := range durs {
		want += int64(d)
	}
	if s.TotalNS != want {
		t.Fatalf("total = %d, want %d", s.TotalNS, want)
	}
	if s.MinNS != int64(100*time.Microsecond) || s.MaxNS != int64(100*time.Millisecond) {
		t.Fatalf("min/max = %d/%d", s.MinNS, s.MaxNS)
	}
	// The log2 histogram has factor-of-two resolution: the p50 estimate must
	// land within the bucket holding the true median (200µs -> [128µs,256µs)).
	if s.P50NS < int64(128*time.Microsecond) || s.P50NS >= int64(512*time.Microsecond) {
		t.Fatalf("p50 = %d out of plausible range", s.P50NS)
	}
	// p99 must land in the top sample's bucket.
	if s.P99NS < int64(64*time.Millisecond) || s.P99NS >= int64(256*time.Millisecond) {
		t.Fatalf("p99 = %d out of plausible range", s.P99NS)
	}
	if s.Occupancy <= 0 {
		t.Fatal("occupancy must be positive for a busy stage")
	}
}

// TestQuantilesClampedToObservedRange pins the fix for the log2-bucket
// quantile overshoot: the geometric bucket midpoint can exceed the recorded
// max (or undershoot the min), but the reported percentiles must not.
func TestQuantilesClampedToObservedRange(t *testing.T) {
	cases := []struct {
		name string
		durs []time.Duration
	}{
		// A single sample just above a power of two: its bucket midpoint
		// (1.5 * 2^(i-1)) is far above the sample itself.
		{"single-low-in-bucket", []time.Duration{1025 * time.Nanosecond}},
		// All samples near the top of one bucket: midpoint undershoots min.
		{"high-in-bucket", []time.Duration{2040 * time.Nanosecond, 2040 * time.Nanosecond}},
		// Mixed magnitudes: p99's bucket midpoint may overshoot the max.
		{"mixed", []time.Duration{100 * time.Nanosecond, 130 * time.Microsecond, 1048577 * time.Nanosecond}},
		// Identical samples: every percentile must equal the one value.
		{"identical", []time.Duration{333 * time.Microsecond, 333 * time.Microsecond, 333 * time.Microsecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			for i, d := range tc.durs {
				c.ObserveDur(StageServe, i, 0, 0, d)
			}
			s := c.Snapshot().Stage("serve/frame")
			if s == nil {
				t.Fatal("serve/frame stage missing")
			}
			for _, p := range []struct {
				name string
				v    int64
			}{{"p50", s.P50NS}, {"p95", s.P95NS}, {"p99", s.P99NS}} {
				if p.v < s.MinNS || p.v > s.MaxNS {
					t.Fatalf("%s = %d outside observed [%d, %d]", p.name, p.v, s.MinNS, s.MaxNS)
				}
			}
			if s.P50NS > s.P95NS || s.P95NS > s.P99NS {
				t.Fatalf("percentiles not monotonic: p50=%d p95=%d p99=%d", s.P50NS, s.P95NS, s.P99NS)
			}
		})
	}
}

func TestGaugeWatermark(t *testing.T) {
	c := New()
	c.GaugeAdd(GaugeJobQueue, 1)
	c.GaugeAdd(GaugeJobQueue, 1)
	c.GaugeAdd(GaugeJobQueue, 1)
	c.GaugeAdd(GaugeJobQueue, -2)
	c.GaugeSet(GaugeRefWindow, 7)
	c.GaugeSet(GaugeRefWindow, 4)
	r := c.Snapshot()
	find := func(name string) GaugeReport {
		for _, g := range r.Gauges {
			if g.Name == name {
				return g
			}
		}
		t.Fatalf("gauge %q missing", name)
		return GaugeReport{}
	}
	if g := find("job-queue"); g.Current != 1 || g.Max != 3 {
		t.Fatalf("job-queue = %+v, want cur 1 max 3", g)
	}
	if g := find("ref-window"); g.Current != 4 || g.Max != 7 {
		t.Fatalf("ref-window = %+v, want cur 4 max 7", g)
	}
}

func TestCountersAndJSON(t *testing.T) {
	c := New()
	c.Count(CounterFrames, 10)
	c.Count(CounterBFrames, 6)
	c.ObserveDur(StageNNL, 0, 0, 0, time.Millisecond)
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["frames"] != 10 || back.Counters["b-frames"] != 6 {
		t.Fatalf("counters round-trip = %+v", back.Counters)
	}
	if back.Stage("nn-l") == nil {
		t.Fatal("nn-l stage lost in JSON round-trip")
	}
}

type recordingTracer struct {
	mu     sync.Mutex
	events []SpanEvent
}

func (r *recordingTracer) Span(e SpanEvent) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func TestTracerReceivesSpans(t *testing.T) {
	c := New()
	tr := &recordingTracer{}
	c.SetTracer(tr)
	c.ObserveDur(StageReconstruct, 7, 2, 5*time.Millisecond, time.Millisecond)
	if len(tr.events) != 1 {
		t.Fatalf("got %d events", len(tr.events))
	}
	e := tr.events[0]
	if e.Frame != 7 || e.Stage != StageReconstruct || e.Start != 5*time.Millisecond || e.Dur != time.Millisecond {
		t.Fatalf("event = %+v", e)
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.ObserveDur(Stage(i%int(NumStages)), i, 0, 0, time.Duration(i)*time.Microsecond)
				c.GaugeAdd(GaugeWorkers, 1)
				c.GaugeAdd(GaugeWorkers, -1)
				c.Count(CounterFrames, 1)
			}
		}(w)
	}
	wg.Wait()
	r := c.Snapshot()
	var n int64
	for _, s := range r.Stages {
		n += s.Count
	}
	if n != 8*500 {
		t.Fatalf("recorded %d spans, want %d", n, 8*500)
	}
	if r.Counters["frames"] != 8*500 {
		t.Fatalf("frames counter = %d", r.Counters["frames"])
	}
}

func TestTableRendering(t *testing.T) {
	c := New()
	c.ObserveDur(StageNNL, 0, 0, 0, 3*time.Millisecond)
	c.ObserveDur(StageRefine, 1, 2, 0, 250*time.Microsecond)
	c.GaugeSet(GaugeRefWindow, 3)
	c.Count(CounterFrames, 2)
	out := c.Snapshot().Table()
	for _, want := range []string{"nn-l", "nn-s", "ref-window", "frames", "p95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestHistBucketEdges pins the log2-bucket behavior of the stage histogram
// at its smallest values (single nanoseconds). Bucket i holds values v with
// bits.Len64(v) == i, the quantile reports the bucket's geometric midpoint
// (lo + lo/2 for lo = 2^(i-1)), and the report clamps every percentile into
// the observed [min, max] — so tiny-value histograms still read exactly.
func TestHistBucketEdges(t *testing.T) {
	cases := []struct {
		name       string
		samples    []int64
		p50, p99   int64
		minV, maxV int64
		mean       int64
	}{
		// 1 is alone in bucket 1 ([1,2)); its midpoint is exactly 1.
		{"ones", []int64{1, 1, 1}, 1, 1, 1, 1, 1},
		// 2 shares bucket 2 ([2,4)) whose midpoint is 3; the clamp to the
		// observed max pulls the estimate back to 2.
		{"twos", []int64{2, 2}, 2, 2, 2, 2, 2},
		// 3 sits at the top of bucket 2; midpoint 3 is exact.
		{"threes", []int64{3}, 3, 3, 3, 3, 3},
		// 8 opens bucket 4 ([8,16), midpoint 12); clamping to max=8 keeps the
		// report inside the observed range.
		{"eights", []int64{8, 8, 8, 8}, 8, 8, 8, 8, 8},
		// Mixed: rank-2 of {1,2,3,8} lands in bucket 2 (midpoint 3); p99's
		// bucket-4 midpoint 12 clamps to the observed max 8.
		// The integer mean of 14/4 truncates to 3.
		{"mixed", []int64{1, 2, 3, 8}, 3, 8, 1, 8, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			for _, v := range tc.samples {
				c.ObserveDur(StageNNL, -1, KindNone, 0, time.Duration(v))
			}
			h := c.Snapshot().Stage("nn-l")
			if h == nil {
				t.Fatal("nn-l stage missing from report")
			}
			if h.Count != int64(len(tc.samples)) {
				t.Fatalf("count = %d, want %d", h.Count, len(tc.samples))
			}
			if h.P50NS != tc.p50 || h.P99NS != tc.p99 {
				t.Fatalf("p50/p99 = %d/%d, want %d/%d", h.P50NS, h.P99NS, tc.p50, tc.p99)
			}
			if h.MinNS != tc.minV || h.MaxNS != tc.maxV {
				t.Fatalf("min/max = %d/%d, want %d/%d", h.MinNS, h.MaxNS, tc.minV, tc.maxV)
			}
			if h.MeanNS != tc.mean {
				t.Fatalf("mean = %v, want %v", h.MeanNS, tc.mean)
			}
			if h.P50NS > h.P95NS || h.P95NS > h.P99NS {
				t.Fatalf("percentiles not monotonic: %d/%d/%d", h.P50NS, h.P95NS, h.P99NS)
			}
		})
	}
}

// TestHistNilSafetyAndJSON: a stage histogram is a no-op on a nil
// collector, clamps negative durations to zero, survives a JSON round-trip,
// and stays out of reports and tables until it has a sample.
func TestHistNilSafetyAndJSON(t *testing.T) {
	var nilC *Collector
	nilC.ObserveDur(StageEmit, -1, KindNone, 0, 4) // must not panic
	c := New()
	c.ObserveDur(StageEmit, -1, KindNone, 0, -5) // clamps to 0
	c.ObserveDur(StageEmit, -1, KindNone, 0, 2)
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	h := back.Stage("emit")
	if h == nil {
		t.Fatal("emit stage lost in JSON round-trip")
	}
	if h.MinNS != 0 || h.MaxNS != 2 || h.Count != 2 {
		t.Fatalf("stage = %+v, want min 0 max 2 count 2", h)
	}
	if got := New().Snapshot().Stages; len(got) != 0 {
		t.Fatalf("empty collector reported stages %+v", got)
	}
	if out := c.Snapshot().Table(); !strings.Contains(out, "emit") {
		t.Fatalf("table missing stage:\n%s", out)
	}
}

func TestEnumNames(t *testing.T) {
	if Stage(200).String() != "unknown" || Gauge(200).String() != "unknown" || Counter(200).String() != "unknown" {
		t.Fatal("out-of-range enums must stringify as unknown")
	}
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		if n := s.String(); n == "" || seen[n] {
			t.Fatalf("stage %d name %q empty or duplicate", s, n)
		} else {
			seen[n] = true
		}
	}
}
