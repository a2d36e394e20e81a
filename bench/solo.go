package main

import (
	"context"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/serve"
)

// solo drives one stream directly through core.StreamingPipeline, one
// engine per chunk over a long-lived decoder — the path serve runs per
// session, with no scheduler, batcher or cache around it.
type solo struct {
	e    *env
	kind pipeKind
	sp   *core.StreamingPipeline
	dec  *codec.StreamDecoder
	tr   *tracer
	fps  float64 // of the last timed window, for extras
}

// soloSession is the session name solo's chunk spans are filed under.
const soloSession = "solo"

func openSolo(e *env, k pipeKind, tr *tracer) *solo {
	return &solo{e: e, kind: k, sp: k.streaming(e.m), tr: tr}
}

// traceNNL puts the timing wrapper around the pipeline's NN-L (a traced
// workload run; the serial attribution pass times Step alone).
func (s *solo) traceNNL() *solo {
	if s.tr != nil {
		s.sp.NNL = &tracedSegmenter{Segmenter: s.sp.NNL, tr: s.tr, sess: soloSession}
	}
	return s
}

func (s *solo) close() error { return nil }

// run steps through the clips in order, closed loop: the next chunk starts
// when the previous one's last mask is ready. A frame's latency runs from
// its chunk's hand-off to its mask.
func (s *solo) run(ctx context.Context, ref *reference, lim limit) (*sample, error) {
	out := newSample()
	start := time.Now()
	for n := 0; ; n++ {
		if lim.done(start, n, len(s.e.clips)) {
			break
		}
		ci := n % len(s.e.clips)
		// Frames an error or a short stream kept back count as failed.
		served, _ := s.chunk(ctx, ref, ci, n, start, out)
		out.lost(chunkFrames - served)
	}
	out.finish(start)
	if lim.window() {
		s.fps = out.fps
	}
	return out, nil
}

// extras, on the FCN configuration, serves the same clips through a
// one-session, one-worker serve.Server for half a window: what the serving
// layer costs a lone stream over driving core directly.
func (s *solo) extras(ctx context.Context, ref *reference, d time.Duration) (map[string]float64, error) {
	if s.kind != pipeFCN {
		return nil, nil
	}
	cfg := serveConfig(s.kind, s.e.m, nil)
	cfg.Workers, cfg.MaxSessions = 1, 1
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	defer closeServer(srv)
	sess, err := srv.Open()
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	v := &viewer{sess: sess, clips: make([]int, len(s.e.clips))}
	for i := range v.clips {
		v.clips[i] = i
	}
	start := time.Now()
	out := driveViewers(ctx, s.e, ref, nil, []*viewer{v}, limit{d: d / 2}, start)
	out.finish(start)
	return map[string]float64{
		"served.fps":         out.fps,
		"served.failed":      float64(out.failed),
		"serve.overhead_pct": 100 * (s.fps - out.fps) / s.fps,
	}, nil
}

// chunk serves one clip and reports how many frames it delivered.
func (s *solo) chunk(ctx context.Context, ref *reference, ci, n int, start time.Time, out *sample) (served int, err error) {
	id := s.tr.beginChunk("core.chunk", soloSession, n)
	defer s.tr.endChunk(soloSession, id)
	t0 := time.Now()
	if s.dec == nil {
		s.dec, err = codec.NewStreamDecoder(s.e.clips[ci].data, codec.DecodeSideInfo)
	} else {
		err = s.dec.Reset(s.e.clips[ci].data)
	}
	if err != nil {
		s.dec = nil
		return 0, err
	}
	eng := s.sp.NewEngine(s.dec)
	for {
		fid := s.tr.begin("core.step", id, n)
		mo, err := eng.Step(ctx)
		s.tr.end(fid)
		if err != nil {
			s.dec = nil // mid-stream decoder state is unusable; resync on the next chunk
			return served, err
		}
		if mo == nil {
			return served, nil
		}
		out.frame(ref.ok(ci, mo.Display, mo.Mask), time.Since(t0), time.Since(start))
		served++
	}
}
