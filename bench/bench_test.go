package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	// The highest candidate with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
	if got, want := quartileSpread([]float64{10, 12, 11, 13}), 2.5/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Error("a single value has no spread")
	}
}

func TestWindowPartsAndTheirMedian(t *testing.T) {
	// A 3 s window: three 1 s parts. The sample at 3.2 s finished after the
	// window closed and belongs to none.
	done := []float64{0.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 2.9, 3.2}
	lat := []float64{10, 20, 1, 2, 3, 4, 5, 7, 99}
	parts := windowParts(done, lat, 1, 3*time.Second)
	want := []part{{2, 10, 20}, {4, 2, 4}, {1 / 0.9, 5, 7}}
	for k := range want {
		if math.Abs(parts[k].fps-want[k].fps) > 1e-9 || parts[k].p50 != want[k].p50 || parts[k].p95 != want[k].p95 {
			t.Errorf("part %d = %+v, want %+v", k, parts[k], want[k])
		}
	}
	if got := medianPart(parts); got != (part{2, 5, 7}) {
		t.Errorf("median part = %+v, want {2 5 7}", got)
	}
	// One latency sample standing for a 12-frame chunk counts 12 frames.
	if got := windowParts(done, lat, 12, 3*time.Second)[1].fps; math.Abs(got-48) > 1e-9 {
		t.Errorf("per-chunk sampling: fps = %v, want 48", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first: counted once
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"parent": {Calls: 1, Total: 100, Self: 50},
		"child":  {Calls: 3, Total: 80, Self: 60},
		"leaf":   {Calls: 1, Total: 20, Self: 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
}

func TestTracerFilesSegmenterSpansUnderServingChunk(t *testing.T) {
	tr := newTracer()
	a := tr.beginChunk("serve.chunk", "s1", 7)
	b := tr.beginChunk("serve.chunk", "s1", 8)
	if id, chunk := tr.serving("s1"); id != a || chunk != 7 {
		t.Errorf("serving = (%d, %d), want the oldest open chunk (%d, 7)", id, chunk, a)
	}
	tr.endChunk("s1", a)
	if id, chunk := tr.serving("s1"); id != b || chunk != 8 {
		t.Errorf("serving after end = (%d, %d), want (%d, 8)", id, chunk, b)
	}
	tr.endChunk("s1", b)
	if id, _ := tr.serving("s1"); id != 0 {
		t.Errorf("serving with nothing open = %d, want 0", id)
	}
	var none *tracer // the untraced run
	none.end(none.begin("x", 0, 0))
	none.endChunk("s", none.beginChunk("x", "s", 0))
	if none.snapshot() != nil {
		t.Error("a nil tracer records nothing")
	}
}

// fakeClock advances only when slept on (or pushed by a slow submit).
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopScheduleAndLateness(t *testing.T) {
	const ms = time.Millisecond
	arr := schedule(2, 400*ms, time.Second)
	var dues []time.Duration
	for _, a := range arr {
		dues = append(dues, a.due)
	}
	if want := []time.Duration{0, 200 * ms, 400 * ms, 600 * ms, 800 * ms}; !reflect.DeepEqual(dues, want) {
		t.Fatalf("due times = %v, want %v (phases staggered by period/cams)", dues, want)
	}
	if arr[1].cam != 1 || arr[1].seq != 0 || arr[2].cam != 0 || arr[2].seq != 1 {
		t.Errorf("arrival order = %+v", arr)
	}

	// The first submit stalls 300 ms. An open loop does not wait for it to
	// finish before the next chunk is *due*: the chunk due at 200 goes out
	// 100 late, and everything after is back on schedule.
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	var lates, sentAt []time.Duration
	dispatch(clk, start, arr, func(a arrival, late time.Duration) {
		lates = append(lates, late)
		sentAt = append(sentAt, clk.Now().Sub(start))
		if a.due == 0 {
			clk.Sleep(300 * ms)
		}
	})
	if want := []time.Duration{0, 100 * ms, 0, 0, 0}; !reflect.DeepEqual(lates, want) {
		t.Errorf("lateness = %v, want %v", lates, want)
	}
	if want := []time.Duration{0, 300 * ms, 400 * ms, 600 * ms, 800 * ms}; !reflect.DeepEqual(sentAt, want) {
		t.Errorf("submit times = %v, want %v (never before due)", sentAt, want)
	}
	// A frame the server took 50 ms over is 150 ms late to its camera.
	if got := openLatency(lates[1], 50*ms); got != 150*ms {
		t.Errorf("openLatency = %v, want 150ms", got)
	}
}

func sampleResult(fps float64, failed int) *resultFile {
	r := &resultFile{
		Schema: resultSchema, Seed: 3, Seconds: 12, GoMaxProcs: procs, GoVersion: "go-test",
		Models: map[string]string{"nns": "aa", "nnl": "bb"}, MACRatio: 24,
	}
	w := &workloadResult{Name: "solo-fcn", Loop: "closed", Why: "w", Attempted: 1200, Failed: failed, Samples: 1100,
		Metrics: map[string]*series{}, Diag: map[string]float64{"fail_pct": 0}}
	for _, v := range []float64{fps, fps * 1.01, fps * 0.99} {
		w.metric("fps", metric{v, "1/s"})
		w.metric("lat_p50_ms", metric{1000 / v, "ms"})
	}
	r.Workloads = append(r.Workloads, w)
	return r
}

func TestResultFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "result.json")
	want := sampleResult(70, 0)
	if err := want.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got.Workloads[0], want.Workloads[0])
	}
	if s := got.Workloads[0].Metrics["fps"]; s.Median != 70 || len(s.Values) != 3 || s.Spread <= 0 {
		t.Errorf("fps series = %+v", s)
	}
	bad := *want
	bad.Schema = resultSchema + 1
	if err := bad.write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := readResult(path); err == nil {
		t.Error("a result file of another schema must be refused")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name, better        string
		bound, a, b, sa, sb float64
		change              float64
		verdict             string
	}{
		{"throughput held", "higher", 0.10, 100, 95, 0.01, 0.01, 0.05, "ok"},
		{"throughput fell past the bound", "higher", 0.10, 100, 85, 0.01, 0.01, 0.15, "worse"},
		{"throughput rose", "higher", 0.10, 100, 130, 0.01, 0.01, -0.30, "ok"},
		{"latency rose past the bound", "lower", 0.20, 10, 12.5, 0, 0, 0.25, "worse"},
		{"latency held but runs scatter wider than the bound", "lower", 0.20, 10, 11, 0.05, 0.30, 0.10, "unresolved"},
		{"a change past the bound is worse whatever the scatter", "lower", 0.20, 10, 13, 0.30, 0.30, 0.30, "worse"},
	} {
		change, v := verdict(c.better, c.bound, c.a, c.b, c.sa, c.sb)
		if v != c.verdict || math.Abs(change-c.change) > 1e-9 {
			t.Errorf("%s: change %+.3f verdict %q, want %+.3f %q", c.name, change, v, c.change, c.verdict)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"end_to_end": [
		{"name": "fps", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "lat_p95_ms", "unit": "ms", "better": "lower", "bound": 0.2}]}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, r *resultFile) string {
		p := filepath.Join(dir, name)
		if err := r.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", sampleResult(70, 0))
	for _, c := range []struct {
		name  string
		other *resultFile
		worse bool
		rows  []string
	}{
		{"same numbers", sampleResult(70.5, 0), false, []string{"ok"}},
		{"slower", sampleResult(60, 0), true, []string{"worse"}},
		{"faster", sampleResult(90, 0), false, []string{"ok"}},
		{"same speed, more failed frames", sampleResult(70, 12), true, []string{"worse"}},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(specPath, base, write("b.json", c.other), &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %t, want %t\n%s", c.name, worse, c.worse, out.String())
		}
		for _, want := range c.rows {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, want, out.String())
			}
		}
		// One row per workload × metric present in both files; lat_p95_ms is in neither.
		if n := strings.Count(out.String(), "solo-fcn"); n != 2 {
			t.Errorf("%s: %d rows for solo-fcn, want 2:\n%s", c.name, n, out.String())
		}
	}
}

// tinyRecon is a two-clip solo workload on the model-free configuration
// (Otsu NN-L, raw reconstruction), small enough for a unit test.
func tinyRecon(t *testing.T) *built {
	t.Helper()
	clips, err := makeClips(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{name: "tiny", kind: pipeRecon, nclips: len(clips)}
	e := &env{clips: clips}
	ref, err := buildReference(w.kind, nil, clips)
	if err != nil {
		t.Fatal(err)
	}
	return &built{w: w, e: e, ref: ref, inst: openSolo(e, w.kind, nil)}
}

func TestCorrectnessGate(t *testing.T) {
	ctx := context.Background()
	b := tinyRecon(t)
	if err := b.gate(ctx); err != nil {
		t.Fatal(err)
	}
	o, err := b.window(ctx, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.failure(o); err != nil || !o.Correct || o.Failed != 0 {
		t.Fatalf("clean run: failure %v, correct %t, failed %d", err, o.Correct, o.Failed)
	}
	for _, name := range []string{"fps", "lat_p50_ms", "lat_p95_ms", "fscore", "setup_s"} {
		if _, ok := o.Metrics[name]; !ok {
			t.Errorf("outcome lacks %s", name)
		}
	}

	// One wrong reference digest: the gate must catch the mismatch and the
	// command must fail (main exits non-zero on a non-nil failure).
	b.ref.digests[1][3] ^= 1
	if err := b.gate(ctx); err != nil {
		t.Fatal(err)
	}
	o, err = b.window(ctx, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.failure(o); err == nil || o.Correct || o.Failed == 0 {
		t.Errorf("corrupted digest: failure %v, correct %t, failed %d; want an error", err, o.Correct, o.Failed)
	}
	if o.Diag["fail_pct"] <= 0 {
		t.Errorf("fail_pct = %v, want > 0", o.Diag["fail_pct"])
	}

	// A reference below the workload's F-score floor fails the gate too.
	b = tinyRecon(t)
	b.w.floor = 1.1
	if err := b.gate(ctx); err != nil {
		t.Fatal(err)
	}
	if o, _ = b.window(ctx, 10*time.Millisecond); b.failure(o) == nil || o.Correct {
		t.Error("an F-score under the floor must fail the run")
	}
}

func TestReplayComputesWhatCoreComputes(t *testing.T) {
	b := tinyRecon(t)
	tr := newTracer()
	r := newReplayer(pipeRecon, nil, tr)
	for ci, c := range b.e.clips {
		if err := r.check(c, ci, b.ref); err != nil {
			t.Fatal(err)
		}
	}
	lt := selfTimes(tr.snapshot())
	if lt["replay.frame"].Calls != 2*chunkFrames {
		t.Errorf("replay.frame calls = %d, want %d", lt["replay.frame"].Calls, 2*chunkFrames)
	}
	if got := lt["codec.decode_anchor"].Calls + lt["codec.decode_side"].Calls; got != 2*chunkFrames {
		t.Errorf("decode spans = %d, want one per frame", got)
	}
	if lt["segment.nnl"].Calls != lt["codec.decode_anchor"].Calls || lt["segment.recon"].Calls != lt["codec.decode_side"].Calls {
		t.Errorf("layer calls do not pair with frame types: %+v", lt)
	}
	b.ref.digests[0][0] ^= 1
	if err := r.check(b.e.clips[0], 0, b.ref); err == nil {
		t.Error("a replay that disagrees with core must be an error")
	}
}

func TestClipsFollowSeedOnOddSlotsOnly(t *testing.T) {
	a, err := makeClips(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeClips(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := makeClips(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a[0].data, b[0].data) {
		t.Error("slot 0 is a validation clip: it must not change with the seed")
	}
	if bytes.Equal(a[1].data, b[1].data) {
		t.Error("slot 1 must change with the seed")
	}
	if !bytes.Equal(a[1].data, again[1].data) {
		t.Error("the same seed must give the same clip")
	}
}

// TestBenchmarkSpecMatchesProgram keeps BENCHMARK.json and the program in
// step: the same workloads, end-to-end metrics and per-layer metrics, with
// the same units.
func TestBenchmarkSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	e2e := map[string]string{"fps": "1/s", "lat_p50_ms": "ms", "lat_p95_ms": "ms", "fscore": "ratio", "setup_s": "s"}
	if len(sp.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics, want %d", len(sp.EndToEnd), len(e2e))
	}
	for _, m := range sp.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q, the program reports %q", m.Name, m.Unit, e2e[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(sp.PerLayer) != len(layerUnits) {
		t.Errorf("%d per-layer metrics, the program reports %d", len(sp.PerLayer), len(layerUnits))
	}
	for _, m := range sp.PerLayer {
		if unit, ok := layerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s: unit %q, the program reports %q (known: %t)", m.Name, m.Unit, unit, ok)
		}
	}
}
