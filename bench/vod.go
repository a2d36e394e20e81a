package main

import (
	"context"
	"sync"
	"time"

	"vrdann/internal/obs"
	"vrdann/internal/serve"
)

const (
	vodSessions = 8
	vodContents = 2
	vodChunks   = 4 // chunks per content
	vodDrivers  = 2
)

// viewer is one closed-loop serving session replaying a fixed clip
// sequence with a single chunk outstanding.
type viewer struct {
	sess  *serve.Session
	clips []int // indices into env.clips, cycled
	next  int   // chunks submitted so far in this run
	base  int   // frames accepted over the session's life: its next display index

	ticket *serve.Chunk
	clip   int // clip index of the outstanding ticket
	first  int // session display index of the ticket's first frame
	span   int
}

// driveViewers runs the viewers closed loop from one goroutine: for each
// in turn it collects the outstanding chunk, checks it, and submits the
// next, so every viewer always has one chunk in the server. Frame latency
// is the server's own arrival-to-completion time.
func driveViewers(ctx context.Context, e *env, ref *reference, tr *tracer, vs []*viewer, lim limit, start time.Time) *sample {
	out := newSample()
	for _, v := range vs {
		v.next = 0
	}
	for active := true; active; {
		active = false
		for _, v := range vs {
			if v.ticket != nil {
				res, err := v.ticket.Wait(ctx)
				tr.endChunk(v.sess.ID, v.span)
				now := time.Since(start)
				out.chunk(ref, v.clip, v.first, res, err, func(r serve.FrameResult) (lat, at time.Duration) {
					return r.Latency, now
				})
				v.ticket = nil
			}
			if lim.done(start, v.next, len(v.clips)) {
				continue
			}
			v.clip = v.clips[v.next%len(v.clips)]
			v.span = tr.beginChunk("serve.chunk", v.sess.ID, v.next)
			t, err := v.sess.Submit(ctx, e.clips[v.clip].data)
			v.next++
			if err != nil {
				tr.endChunk(v.sess.ID, v.span)
				out.lost(chunkFrames)
				continue
			}
			v.ticket, v.first = t, v.base
			v.base += chunkFrames
			active = true
		}
	}
	return out
}

// vod is the shared-content workload: eight viewers over two contents on
// a server with the content cache on.
type vod struct {
	e       *env
	srv     *serve.Server
	tr      *tracer
	viewers []*viewer
}

func openVOD(e *env, tr *tracer) (instance, error) {
	cfg := serveConfig(pipeFCN, e.m, tr)
	cfg.CacheBytes = 64 << 20
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	v := &vod{e: e, srv: srv, tr: tr}
	for j := 0; j < vodSessions; j++ {
		s, err := srv.Open()
		if err != nil {
			_ = closeServer(srv)
			return nil, err
		}
		content := j % vodContents
		clips := make([]int, vodChunks)
		for c := range clips {
			clips[c] = content*vodChunks + c
		}
		v.viewers = append(v.viewers, &viewer{sess: s, clips: clips})
	}
	return v, nil
}

func (v *vod) close() error {
	for _, vw := range v.viewers {
		vw.sess.Close()
	}
	return closeServer(v.srv)
}

// run splits the viewers between the driver goroutines. The first pass
// over an empty cache is the cold (write) use: its fill rate is reported
// as a diagnostic. Every later lookup hits.
func (v *vod) run(ctx context.Context, ref *reference, lim limit) (*sample, error) {
	col := v.srv.Obs()
	hits0, miss0 := counter(col, obs.CounterCacheHits), counter(col, obs.CounterCacheMisses)
	start := time.Now()
	parts := make([]*sample, vodDrivers)
	per := len(v.viewers) / vodDrivers
	var wg sync.WaitGroup
	for g := 0; g < vodDrivers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parts[g] = driveViewers(ctx, v.e, ref, v.tr, v.viewers[g*per:(g+1)*per], lim, start)
		}(g)
	}
	wg.Wait()
	out := newSample()
	for _, p := range parts {
		out.merge(p)
	}
	out.finish(start)
	hits, miss := counter(col, obs.CounterCacheHits)-hits0, counter(col, obs.CounterCacheMisses)-miss0
	if hits+miss > 0 {
		out.diag["contentcache.hit_ratio"] = hits / (hits + miss)
	}
	// Distinct frames computed per second: meaningful on the cold pass only.
	out.diag["contentcache.fill_fps"] = miss / out.elapsed.Seconds()
	return out, nil
}
