package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"vrdann/internal/obs"
	"vrdann/internal/serve"
	"vrdann/internal/shard"
	"vrdann/internal/video"
	"vrdann/internal/vidio"
)

const gateClients = 2

// gate is the proxy-hop workload: a shard gateway in front of one serving
// backend, both loopback listeners inside the benchmark process, driven by
// keep-alive HTTP clients that ask for PGM masks.
type gate struct {
	e       *env
	tr      *tracer
	srv     *serve.Server
	gw      *shard.Gateway
	backend *httptest.Server
	front   *httptest.Server
	p50     float64 // ms per chunk through the gateway in the last window
}

func openGate(e *env, tr *tracer) (instance, error) {
	srv, err := serve.NewServer(serveConfig(pipeRecon, e.m, tr))
	if err != nil {
		return nil, err
	}
	g := &gate{e: e, tr: tr, srv: srv, backend: httptest.NewServer(srv.Handler())}
	g.gw, err = shard.NewGateway(shard.Config{
		Backends:       []string{g.backend.URL},
		HealthInterval: -1, // one static healthy backend: no prober traffic in the window
		Obs:            obs.New(),
	})
	if err != nil {
		g.backend.Close()
		_ = closeServer(srv)
		return nil, err
	}
	g.front = httptest.NewServer(g.gw.Handler())
	return g, nil
}

func (g *gate) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g.front.Close()
	err := g.gw.Close(ctx)
	g.backend.Close()
	if cerr := closeServer(g.srv); err == nil {
		err = cerr
	}
	return err
}

func (g *gate) run(ctx context.Context, ref *reference, lim limit) (*sample, error) {
	retries0 := counter(g.gw.Obs(), obs.CounterProxyErrors)
	out, err := g.runVia(ctx, g.front.URL, ref, lim)
	if err == nil {
		out.diag["shard.proxy_retries"] = counter(g.gw.Obs(), obs.CounterProxyErrors) - retries0
		g.p50 = median(out.latMS)
	}
	return out, err
}

// extras points the same clients straight at the backend for half a
// window: the gateway's median chunk time minus the direct one is the hop.
func (g *gate) extras(ctx context.Context, ref *reference, d time.Duration) (map[string]float64, error) {
	direct, err := g.runVia(ctx, g.backend.URL, ref, limit{d: d / 2})
	if err != nil {
		return nil, err
	}
	p50 := median(direct.latMS)
	return map[string]float64{
		"direct.lat_p50_ms": p50,
		"direct.fps":        direct.fps,
		"direct.failed":     float64(direct.failed),
		"shard.hop_ms":      g.p50 - p50,
	}, nil
}

// runVia drives the clients against base — the gateway, or the backend
// directly, which is the same HTTP surface minus the hop.
func (g *gate) runVia(ctx context.Context, base string, ref *reference, lim limit) (*sample, error) {
	start := time.Now()
	parts := make([]*sample, gateClients)
	errs := make([]error, gateClients)
	var wg sync.WaitGroup
	for c := 0; c < gateClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c], errs[c] = g.client(ctx, base, c, ref, lim, start)
		}(c)
	}
	wg.Wait()
	out := newSample()
	for c, p := range parts {
		if errs[c] != nil {
			return nil, errs[c]
		}
		out.merge(p)
	}
	out.finish(start)
	return out, nil
}

// client is one closed-loop HTTP client with its own connection and
// session. It walks the clips from its own offset so the two clients never
// send the same clip at once. All twelve masks of a chunk arrive with the
// response, so latency is sampled once per chunk: request to last byte.
func (g *gate) client(ctx context.Context, base string, c int, ref *reference, lim limit, start time.Time) (*sample, error) {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	api := &shard.Client{Base: base, HTTP: hc}
	id, err := api.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer api.Close(ctx, id) // best effort: the servers are torn down right after
	out := newSample()
	out.perSample = chunkFrames
	nclips := len(g.e.clips)
	for n := 0; ; n++ {
		if lim.done(start, n, nclips) {
			break
		}
		ci := (n + c*nclips/gateClients) % nclips
		span := g.tr.begin("http.chunk", 0, n)
		t0 := time.Now()
		body, err := api.ChunkPGM(ctx, id, g.e.clips[ci].data)
		lat := time.Since(t0)
		g.tr.end(span)
		good := 0
		if err == nil {
			masks, _ := parsePGMs(body) // a truncated tail leaves its frames unmatched, so failed
			for d, m := range masks {
				if ref.ok(ci, d, m) {
					good++
				}
			}
		}
		out.attempted += chunkFrames
		out.failed += chunkFrames - good
		out.timing(lat, time.Since(start))
	}
	return out, nil
}

// parsePGMs splits a chunk response — concatenated mask PGMs in display
// order — into masks. One bufio.Reader spans the body: ReadMaskPGM reuses a
// reader that is already buffered, so consecutive images parse in sequence.
func parsePGMs(body []byte) ([]*video.Mask, error) {
	br := bufio.NewReaderSize(bytes.NewReader(body), 1<<16)
	var masks []*video.Mask
	for {
		if _, err := br.Peek(1); err == io.EOF {
			return masks, nil
		}
		m, err := vidio.ReadMaskPGM(br)
		if err != nil {
			return masks, err
		}
		masks = append(masks, m)
	}
}
