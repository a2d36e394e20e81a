package main

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"vrdann/internal/obs"
	"vrdann/internal/serve"
)

// Camera counts of the three open-loop steps. Calibrated once at the
// parent commit (eb0abc0, 2 vCPU) against the closed-loop capacity of the
// same server and content, 83 frames/s — see README.md — to 36%, 60% and
// 84% of it, and frozen: a run never derives them, so two result files
// always compare equal offered loads. Cameras run at 10 fps, not 30: at 30
// the server holds 2.8 cameras, and whole cameras cannot step through
// 35/55/85% of that.
const (
	camsLow     = 3
	camsMid     = 5
	camsHigh    = 7
	cameraFPS   = 10
	clipsPerCam = 2
)

// chunkPeriod is how often a camera emits a chunk.
const chunkPeriod = chunkFrames * time.Second / cameraFPS

// stepLimit is the latency a step must hold at p95 to count as keeping up:
// one chunk period, past which a camera's next chunk is due before this
// one's masks are out.
const stepLimitMS = float64(chunkPeriod / time.Millisecond)

// fleet is the open-loop workload: independent cameras, one session and
// distinct content each, submitting on a schedule whether or not the
// server keeps up.
type fleet struct {
	e   *env
	srv *serve.Server
	tr  *tracer
	mid stepReport // the last gated step, for the extras table
}

func openFleet(e *env, tr *tracer) (instance, error) {
	cfg := serveConfig(pipeFCN, e.m, tr)
	cfg.MaxBatch = 4
	cfg.Policy = serve.Reject
	// Three chunks per camera: a camera more than a second behind is shed at
	// the edge instead of queueing without bound.
	cfg.MaxQueuedFrames = 3 * chunkFrames
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	return &fleet{e: e, srv: srv, tr: tr}, nil
}

func (f *fleet) close() error { return closeServer(f.srv) }

// inflight is one submitted chunk on its way from dispatcher to collector.
type inflight struct {
	ticket *serve.Chunk
	sess   string
	span   int
	clip   int
	first  int           // session display index of the chunk's first frame
	due    time.Duration // offset into the step
	late   time.Duration
}

// stepReport is the per-step diagnostic row.
type stepReport struct {
	cams      int
	p50, p95  float64 // ms, from the chunk's due time
	rejects   int
	backlog   int     // chunks still in the server when the schedule ended
	cpuUtil   float64 // process CPU time over wall time × procs
	genLate95 float64 // ms the dispatcher ran behind schedule, p95
	ok        bool
}

// step runs cams cameras for one window and returns the sample with its
// report. One dispatcher goroutine submits every chunk when due; one
// collector awaits the tickets in submission order.
func (f *fleet) step(ctx context.Context, ref *reference, cams int, window time.Duration) (*sample, stepReport, error) {
	sessions := make([]*serve.Session, cams)
	for c := range sessions {
		s, err := f.srv.Open()
		if err != nil {
			return nil, stepReport{}, err
		}
		sessions[c] = s
		defer s.Close()
	}
	arrivals := schedule(cams, chunkPeriod, window)
	// Sized to the whole schedule so the dispatcher never blocks on the
	// collector: a blocked dispatcher would close the loop.
	pipe := make(chan inflight, len(arrivals))
	out := newSample()
	var collected atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for in := range pipe {
			res, err := in.ticket.Wait(ctx)
			f.tr.endChunk(in.sess, in.span)
			out.chunk(ref, in.clip, in.first, res, err, func(r serve.FrameResult) (lat, at time.Duration) {
				lat = openLatency(in.late, r.Latency)
				return lat, in.due + lat
			})
			collected.Add(1)
		}
	}()

	rep := stepReport{cams: cams}
	var lates []float64
	accepted := make([]int, cams)
	cpu0 := cpuTime()
	start := time.Now()
	dispatch(wallClock{}, start, arrivals, func(a arrival, late time.Duration) {
		lates = append(lates, float64(late)/float64(time.Millisecond))
		s := sessions[a.cam]
		clip := clipsPerCam*a.cam + a.seq%clipsPerCam
		span := f.tr.beginChunk("serve.chunk", s.ID, a.seq)
		t, err := s.Submit(ctx, f.e.clips[clip].data)
		if err != nil {
			f.tr.endChunk(s.ID, span)
			rep.rejects++
			return
		}
		pipe <- inflight{ticket: t, sess: s.ID, span: span, clip: clip, first: accepted[a.cam] * chunkFrames, due: a.due, late: late}
		accepted[a.cam]++
	})
	close(pipe)
	rep.backlog = len(arrivals) - rep.rejects - int(collected.Load())
	<-done
	out.lost(rep.rejects * chunkFrames)
	out.finish(start)

	rep.cpuUtil = (cpuTime() - cpu0).Seconds() / out.elapsed.Seconds() / float64(procs)
	sort.Float64s(lates)
	rep.genLate95 = percentile(lates, 95)
	lat := append([]float64(nil), out.latMS...)
	sort.Float64s(lat)
	rep.p50, rep.p95 = percentile(lat, 50), percentile(lat, 95)
	// Keeping up: the tail inside one chunk period, nothing shed, and no
	// more than one chunk per camera still in the server when the schedule
	// ends (more means the queue was growing).
	rep.ok = rep.p95 <= stepLimitMS && rep.rejects == 0 && out.failed == 0 && rep.backlog <= cams
	return out, rep, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run is the gated part: the mid step for the whole window. The warm pass
// is one short high step, long enough for every camera to send both of its
// clips.
func (f *fleet) run(ctx context.Context, ref *reference, lim limit) (*sample, error) {
	if !lim.window() {
		s, _, err := f.step(ctx, ref, camsHigh, clipsPerCam*chunkPeriod)
		return s, err
	}
	col := f.srv.Obs()
	items0, timer0, flushes0 := counter(col, obs.CounterBatchItems), counter(col, obs.CounterBatchFlushTimer), batchFlushes(col)
	s, rep, err := f.step(ctx, ref, camsMid, lim.d)
	if err != nil {
		return nil, err
	}
	f.mid = rep
	s.diag["serve.rejects"] = float64(rep.rejects)
	s.diag["gen_late_p95_ms"] = rep.genLate95
	s.diag["cpu_util"] = rep.cpuUtil
	s.diag["backlog_chunks"] = float64(rep.backlog)
	if flushes := batchFlushes(col) - flushes0; flushes > 0 {
		s.diag["batch.size_mean"] = (counter(col, obs.CounterBatchItems) - items0) / flushes
		s.diag["batch.flush_timer_pct"] = 100 * (counter(col, obs.CounterBatchFlushTimer) - timer0) / flushes
	}
	return s, nil
}

// extras runs the low and high steps around the last mid step, half a
// window each, and reports the per-step latency table and cams_ok: the
// largest step that kept up. Diagnostics only — nothing here is gated.
func (f *fleet) extras(ctx context.Context, ref *reference, d time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	steps := []stepReport{f.mid}
	for _, cams := range []int{camsLow, camsHigh} {
		_, rep, err := f.step(ctx, ref, cams, d/2)
		if err != nil {
			return nil, err
		}
		steps = append(steps, rep)
	}
	camsOK := 0
	for _, r := range steps {
		pre := fmt.Sprintf("cams%d.", r.cams)
		out[pre+"lat_p50_ms"], out[pre+"lat_p95_ms"] = r.p50, r.p95
		out[pre+"cpu_util"], out[pre+"rejects"] = r.cpuUtil, float64(r.rejects)
		out[pre+"backlog_chunks"] = float64(r.backlog)
		if r.ok && r.cams > camsOK {
			camsOK = r.cams
		}
	}
	out["cams_ok"] = float64(camsOK)
	return out, nil
}

// batchFlushes is the number of fused executions so far, all reasons.
func batchFlushes(c *obs.Collector) float64 {
	return counter(c, obs.CounterBatchFlushFull) + counter(c, obs.CounterBatchFlushTimer) +
		counter(c, obs.CounterBatchFlushStall) + counter(c, obs.CounterBatchFlushDrain)
}
