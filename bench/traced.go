package main

import (
	"context"
	"fmt"
	"time"

	"vrdann/internal/serve"
)

// layerUnits names every per-layer metric of BENCHMARK.json with its unit.
// A traced run reports all of them for every workload; a metric whose
// layer the workload never enters reads 0.
var layerUnits = map[string]string{
	"tensor.gemm_gops":        "Gop/s",
	"tensor.gemm_i8_gops":     "Gop/s",
	"tensor.im2col_gbs":       "GB/s",
	"tensor.allocs_per_op":    "count",
	"nn.nns_f32_ms":           "ms",
	"nn.nns_i8_ms":            "ms",
	"nn.nnl_ms":               "ms",
	"segment.recon_ms":        "ms",
	"segment.refine_self_ms":  "ms",
	"codec.decode_anchor_ms":  "ms",
	"codec.decode_side_ms":    "ms",
	"core.step_self_ms":       "ms",
	"serve.wait_ms":           "ms",
	"serve.overhead_pct":      "%",
	"serve.rejects":           "count",
	"batch.size_mean":         "count",
	"batch.flush_timer_pct":   "%",
	"contentcache.hit_ratio":  "ratio",
	"contentcache.acquire_us": "us",
	"contentcache.fill_us":    "us",
	"contentcache.fill_fps":   "1/s",
	"shard.hop_ms":            "ms",
	"shard.proxy_retries":     "count",
	"allocs_per_frame":        "count",
	"alloc_kb_per_frame":      "KB",
	"trace_overhead_pct":      "%",
	"share.nnl_pct":           "%",
	"share.nns_pct":           "%",
}

// replayClipCount bounds the serial layer-attribution passes: the first
// clips of the workload (half fixed, half seeded) are enough for per-call
// means, and the passes stay a few seconds on the FCN workloads.
const replayClipCount = 8

// rootSpans are the per-chunk request spans of the three kinds of driver.
var rootSpans = []string{"core.chunk", "serve.chunk", "http.chunk"}

// servered is implemented by instances built on one serve.Server.
type servered interface{ server() *serve.Server }

func (f *fleet) server() *serve.Server { return f.srv }
func (v *vod) server() *serve.Server   { return v.srv }

// idleSojourn serves the clips one at a time through an otherwise idle
// server and returns the mean milliseconds from Submit to the last mask:
// a chunk's solo service time on that server, cache and all.
func idleSojourn(ctx context.Context, srv *serve.Server, e *env, n int) (float64, error) {
	s, err := srv.Open()
	if err != nil {
		return 0, err
	}
	defer s.Close()
	start := time.Now()
	for _, c := range e.clips[:n] {
		t, err := s.Submit(ctx, c.data)
		if err != nil {
			return 0, err
		}
		if _, err := t.Wait(ctx); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() * 1e3 / float64(n), nil
}

// perCall is a layer's mean milliseconds per call (0 when never called).
func perCall(lt map[string]layerTime, name string, self bool) float64 {
	l := lt[name]
	if l.Calls == 0 {
		return 0
	}
	d := l.Total
	if self {
		d = l.Self
	}
	return d.Seconds() * 1e3 / float64(l.Calls)
}

// measureTraced is the traced run of one workload. It never reports the
// end-to-end metrics — those come from untraced runs only — but every
// per-layer metric, from four sources:
//
//   - an untraced and a traced window of the workload, a third of the time
//     each: spans around Submit→Wait, HTTP calls and the NN-L handed to the
//     server, the fps difference as trace_overhead_pct, and the obs
//     counters the server already keeps;
//   - the workload's side measurements (extras);
//   - two serial passes over the workload's first clips: core's own frame
//     loop timed per Step, and the benchmark's replay of it timed per layer
//     call, cross-checked mask for mask;
//   - direct calls into tensor, nn and contentcache at the deployed shapes.
func measureTraced(ctx context.Context, w *workload, seed int64, d time.Duration) (*outcome, []span, error) {
	third := d / 3
	b, err := build(ctx, w, seed, 1)
	if err != nil {
		return nil, nil, err
	}
	base, err := b.window(ctx, third)
	if err != nil {
		b.inst.close()
		return nil, nil, err
	}
	layers := make(map[string]float64)
	for k, v := range base.Diag {
		layers[k] = v
	}
	if x, ok := b.inst.(extraRunner); ok {
		extra, err := x.extras(ctx, b.ref, third)
		if err != nil {
			b.inst.close()
			return nil, nil, fmt.Errorf("%s: extras: %w", w.name, err)
		}
		for k, v := range extra {
			layers[k] = v
		}
	}
	idleMS := 0.0
	if s, ok := b.inst.(servered); ok {
		if idleMS, err = idleSojourn(ctx, s.server(), b.e, min(len(b.e.clips), replayClipCount)); err != nil {
			b.inst.close()
			return nil, nil, fmt.Errorf("%s: idle pass: %w", w.name, err)
		}
	}
	if err := b.inst.close(); err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	t, err := b.reopen(ctx, tr)
	if err != nil {
		return nil, nil, err
	}
	windowFrom := tr.count()
	traced, err := t.window(ctx, third)
	cerr := t.inst.close()
	if err != nil {
		return nil, nil, err
	}
	if cerr != nil {
		return nil, nil, cerr
	}
	serialFrom := tr.count()
	layers["trace_overhead_pct"] = 100 * (base.Metrics["fps"].Value - traced.Metrics["fps"].Value) / base.Metrics["fps"].Value

	// Serial passes, clip by clip: core's own frame loop, then the replay of
	// the same clip, so both meet the same machine state.
	n := min(len(b.e.clips), replayClipCount)
	direct, replay := openSolo(b.e, w.kind, tr), newReplayer(w.kind, b.e.m, tr)
	coreRun := newSample()
	for ci := 0; ci < n; ci++ {
		served, _ := direct.chunk(ctx, b.ref, ci, ci, time.Now(), coreRun)
		coreRun.lost(chunkFrames - served)
		if err := replay.check(b.e.clips[ci], ci, b.ref); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	spans := tr.snapshot()
	windowSpans, serialSpans := spans[windowFrom:serialFrom], spans[serialFrom:]
	serial := selfTimes(serialSpans)
	layers["codec.decode_anchor_ms"] = perCall(serial, "codec.decode_anchor", false)
	layers["codec.decode_side_ms"] = perCall(serial, "codec.decode_side", false)
	layers["segment.recon_ms"] = perCall(serial, "segment.recon", false)
	layers["segment.refine_self_ms"] = perCall(serial, "segment.refine", true)
	// What core's Step spends outside the calls the replay made too: per
	// clip, Step time minus the replay's child spans; the median clip.
	var stepSelf []float64
	for ci := 0; ci < n; ci++ {
		var of []span
		for _, sp := range serialSpans {
			if sp.Chunk == ci {
				of = append(of, sp)
			}
		}
		lt := selfTimes(of)
		work := lt["replay.frame"].Total - lt["replay.frame"].Self
		stepSelf = append(stepSelf, (lt["core.step"].Total-work).Seconds()*1e3/chunkFrames)
	}
	layers["core.step_self_ms"] = median(stepSelf)

	// Shares of a chunk's time in the system (its request span) in the
	// traced window: NN-L from the spans of the segmenter the benchmark
	// handed in; NN-S from the replay's per-chunk forward time, scaled by
	// the share of lookups that missed the cache, since a hit runs no NN.
	win := selfTimes(windowSpans)
	var reqMS, reqCalls float64
	for _, name := range rootSpans {
		reqMS += win[name].Total.Seconds() * 1e3
		reqCalls += float64(win[name].Calls)
	}
	if reqMS > 0 {
		miss := 1.0
		if hr, ok := traced.Diag["contentcache.hit_ratio"]; ok {
			miss = 1 - hr
		}
		layers["share.nnl_pct"] = 100 * win["segment.nnl"].Total.Seconds() * 1e3 / reqMS
		layers["share.nns_pct"] = 100 * miss * serial["nn.nns_forward"].Total.Seconds() * 1e3 / float64(n) / (reqMS / reqCalls)
	}
	if idleMS > 0 {
		layers["serve.wait_ms"] = perCall(win, "serve.chunk", false) - idleMS
	}

	// Direct calls. Rows (per shape, per convolution) are diagnostics.
	rows := make(map[string]float64)
	for _, part := range []map[string]float64{
		kernelMetrics(third/4, rows), modelMetrics(b.e.m, third/4, rows), cacheMetrics(third / 8),
	} {
		for k, v := range part {
			layers[k] = v
		}
	}

	o := &outcome{
		Workload:  w.name,
		Attempted: base.Attempted + traced.Attempted + coreRun.attempted,
		Failed:    base.Failed + traced.Failed + coreRun.failed,
		Metrics:   make(map[string]metric, len(layerUnits)),
		Diag:      rows,
	}
	o.Correct = o.Failed == 0 && b.gateErr == nil && t.gateErr == nil
	for k, v := range layers {
		if unit, ok := layerUnits[k]; ok {
			o.Metrics[k] = metric{v, unit}
		} else {
			o.Diag[k] = v
		}
	}
	for k, unit := range layerUnits {
		if _, ok := o.Metrics[k]; !ok {
			o.Metrics[k] = metric{0, unit}
		}
	}
	if !o.Correct {
		return o, spans, fmt.Errorf("%s: %d of %d frames failed the correctness check", w.name, o.Failed, o.Attempted)
	}
	return o, spans, nil
}
