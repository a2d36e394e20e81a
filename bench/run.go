package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// procs is the GOMAXPROCS every run is pinned to (the reference machine
// has two cores); results record it.
const procs = 2

// setupReps is how many times a run builds its workload from scratch;
// setup_s is the median.
const setupReps = 3

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload reports.
type outcome struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Samples   int                `json:"latency_samples"`
	Metrics   map[string]metric  `json:"metrics"`
	Diag      map[string]float64 `json:"diagnostics,omitempty"`
}

// built is a workload set up and verified, ready for timed windows.
type built struct {
	w       *workload
	e       *env
	ref     *reference
	inst    instance
	setupS  float64
	warm    *sample
	gateErr error // why the correctness gate failed, if it did
}

// build sets a workload up reps times from scratch (keeping the last),
// computes the serial reference, and runs the correctness gate.
func build(ctx context.Context, w *workload, seed int64, reps int) (*built, error) {
	b := &built{w: w}
	var took []float64
	for i := 0; i < reps; i++ {
		if b.inst != nil {
			if err := b.inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		t0 := time.Now()
		e, err := newEnv(seed, w.nclips)
		if err != nil {
			return nil, err
		}
		inst, err := w.open(e, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: open: %w", w.name, err)
		}
		took = append(took, time.Since(t0).Seconds())
		b.e, b.inst = e, inst
	}
	b.setupS = median(took)
	var err error
	if b.ref, err = buildReference(w.kind, b.e.m, b.e.clips); err != nil {
		b.inst.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := b.gate(ctx); err != nil {
		b.inst.close()
		return nil, err
	}
	return b, nil
}

// gate is the correctness gate: one full pass of the content through the
// measured path, every mask checked against the serial reference, and the
// reference's F-score against the workload's floor. It doubles as the
// untimed warm pass.
func (b *built) gate(ctx context.Context) (err error) {
	b.gateErr = nil
	if b.warm, err = b.inst.run(ctx, b.ref, limit{passes: 1}); err != nil {
		return fmt.Errorf("%s: warm pass: %w", b.w.name, err)
	}
	switch {
	case b.warm.failed > 0:
		b.gateErr = fmt.Errorf("%d of %d frames differ from the serial reference", b.warm.failed, b.warm.attempted)
	case b.ref.fscore < b.w.floor:
		b.gateErr = fmt.Errorf("fscore %.4f below the floor %.2f", b.ref.fscore, b.w.floor)
	}
	return nil
}

// reopen builds the workload's system again over the same content and
// reference, with spans recorded, and gates it.
func (b *built) reopen(ctx context.Context, tr *tracer) (*built, error) {
	inst, err := b.w.open(b.e, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", b.w.name, err)
	}
	t := &built{w: b.w, e: b.e, ref: b.ref, inst: inst, setupS: b.setupS}
	if err := t.gate(ctx); err != nil {
		inst.close()
		return nil, err
	}
	return t, nil
}

// window runs one timed window and folds it into an outcome.
func (b *built) window(ctx context.Context, d time.Duration) (*outcome, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s, err := b.inst.run(ctx, b.ref, limit{d: d})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.w.name, err)
	}
	runtime.ReadMemStats(&m1)
	lat := append([]float64(nil), s.latMS...)
	sort.Float64s(lat)
	parts := windowParts(s.doneS, s.latMS, s.perSample, d)
	mid := medianPart(parts)
	o := &outcome{
		Workload:  b.w.name,
		Attempted: s.attempted + b.warm.attempted,
		Failed:    s.failed + b.warm.failed,
		Samples:   len(lat),
		Metrics: map[string]metric{
			"fps":        {mid.fps, "1/s"},
			"lat_p50_ms": {mid.p50, "ms"},
			"lat_p95_ms": {mid.p95, "ms"},
			"fscore":     {b.ref.fscore, "ratio"},
			"setup_s":    {b.setupS, "s"},
		},
		Diag: s.diag,
	}
	o.Correct = o.Failed == 0 && b.gateErr == nil
	if tail := tailPercentile(len(lat)); tail > 0 {
		o.Diag["lat_tail_pct"] = tail
		o.Diag["lat_tail_ms"] = percentile(lat, tail)
	}
	for k, p := range parts {
		o.Diag[fmt.Sprintf("part%d.fps", k+1)] = p.fps
		o.Diag[fmt.Sprintf("part%d.lat_p95_ms", k+1)] = p.p95
	}
	o.Diag["whole.fps"] = s.fps
	o.Diag["whole.lat_p50_ms"], o.Diag["whole.lat_p95_ms"] = percentile(lat, 50), percentile(lat, 95)
	o.Diag["fscore_seeded"] = b.ref.fscoreSeeded
	o.Diag["fail_pct"] = 100 * float64(o.Failed) / float64(o.Attempted)
	if served := s.attempted - s.failed; served > 0 {
		o.Diag["allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(served)
		o.Diag["alloc_kb_per_frame"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(served)
	}
	if b.warm.diag["contentcache.fill_fps"] > 0 {
		// The cold pass is the cache's write use; the window is its read use.
		o.Diag["contentcache.fill_fps"] = b.warm.diag["contentcache.fill_fps"]
	}
	return o, nil
}

// failure is why a run's outcome must fail the command, or nil.
func (b *built) failure(o *outcome) error {
	switch {
	case b.gateErr != nil:
		return fmt.Errorf("%s: correctness gate: %w", b.w.name, b.gateErr)
	case o.Failed > 0:
		return fmt.Errorf("%s: %d of %d frames failed", b.w.name, o.Failed, o.Attempted)
	}
	return nil
}

// measure is the untraced run of one workload: set-up, gate, one window,
// and with extras the workload's side measurements as diagnostics.
func measure(ctx context.Context, w *workload, seed int64, d time.Duration, extras bool) (*outcome, error) {
	b, err := build(ctx, w, seed, setupReps)
	if err != nil {
		return nil, err
	}
	defer b.inst.close()
	o, err := b.window(ctx, d)
	if err != nil {
		return nil, err
	}
	if x, ok := b.inst.(extraRunner); ok && extras {
		more, err := x.extras(ctx, b.ref, d)
		if err != nil {
			return nil, fmt.Errorf("%s: extras: %w", w.name, err)
		}
		for k, v := range more {
			o.Diag[k] = v
		}
	}
	return o, b.failure(o)
}
