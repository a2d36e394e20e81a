// Command vrserve runs the multi-stream VR-DANN serving layer as an HTTP
// service: clients open sessions, POST encoded bitstream chunks, and get
// segmentation masks (or per-frame summaries) back, with per-session and
// server-wide metrics, health, expvar and pprof endpoints.
//
//	vrserve -addr :8080 -max-sessions 16 -workers 8 -budget 500ms
//
// With no trained network available, anchors are segmented by the
// deterministic Otsu threshold segmenter; -refine trains the small NN-S on
// the synthetic training set at startup and enables B-frame refinement.
//
// -smoke runs the self-test instead of serving: it starts the server on a
// loopback port, pushes one stream through the load generator and one
// chunk over real HTTP, checks the masks and shuts down cleanly — exit 0
// on success. The Makefile's serve-smoke target wraps exactly this.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"vrdann/internal/adapt"
	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/qos"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxSessions = flag.Int("max-sessions", 16, "admission cap: concurrent sessions")
		queueFrames = flag.Int("queue-frames", 256, "per-session queued-frame bound")
		workers     = flag.Int("workers", 0, "shared worker budget (0 = one per CPU)")
		budget      = flag.Duration("budget", 0, "frame deadline: chunks older than this shed B-frames (0 = never)")
		wait        = flag.Bool("wait", false, "block full-queue submits instead of rejecting")
		refine      = flag.Bool("refine", false, "train NN-S at startup and refine B-frames")
		quant       = flag.Bool("quant", false, "serve NN-S refinement on the int8 tier with residual-driven block skipping (implies -refine)")
		skipThresh  = flag.Int("skip-threshold", 8, "residual energy above which a block is refined under -quant (0 = skip only bit-exact predictions)")
		smoke       = flag.Bool("smoke", false, "run the serving self-test and exit")
		readyFile   = flag.String("ready-file", "", "after binding, write the server's base URL here (multi-process harnesses pass -addr 127.0.0.1:0 and poll this file)")
		cacheMB     = flag.Int64("cache-mb", 0, "shared content-addressed mask cache budget in MiB: sessions serving bit-identical chunks share anchor/B-frame masks (0 disables)")
		qosMode     = flag.String("qos", "off", "adaptive QoS degradation ladder: on|off. off keeps the pre-ladder binary policy (bit-identical serving); on degrades B-frames full->refine->recon->skip under load, with premium/free session classes (?class= on open)")
		adaptMode   = flag.String("adapt", "off", "online per-stream adaptation: on|off. on fine-tunes a private NN-S clone per session from its own NN-L anchor pseudo-labels, in serving idle gaps only, promoting weights that beat the serving set (implies -refine)")

		maxChunk   = flag.Int64("max-chunk", 64<<20, "chunk POST body cap in bytes (oversize gets 413)")
		brkFails   = flag.Int("breaker-threshold", 3, "consecutive chunk failures that trip a session's circuit breaker (negative disables)")
		brkBackoff = flag.Duration("breaker-backoff", time.Second, "breaker rejection window after a trip (doubles per successive trip)")
		brkTrips   = flag.Int("breaker-max-trips", 3, "breaker trips without a success before the session is force-closed")
	)
	flag.Parse()

	cfg := serve.Config{
		MaxSessions:     *maxSessions,
		MaxQueuedFrames: *queueFrames,
		Workers:         *workers,
		FrameBudget:     *budget,
		MaxChunkBytes:   *maxChunk,
		CacheBytes:      *cacheMB << 20,

		BreakerThreshold: *brkFails,
		BreakerBackoff:   *brkBackoff,
		BreakerMaxTrips:  *brkTrips,
		NewSegmenter: func(string) segment.Segmenter {
			return &segment.ThresholdSegmenter{CloseRadius: 1}
		},
		Obs: obs.New(),
	}
	if *wait {
		cfg.Policy = serve.Wait
	}
	switch *qosMode {
	case "off":
	case "on":
		cfg.QoS = &qos.Config{} // documented defaults
	default:
		log.Fatalf("vrserve: -qos must be on or off, got %q", *qosMode)
	}
	switch *adaptMode {
	case "off":
	case "on":
		cfg.Adapt = &adapt.Config{} // documented defaults; server wires per session
	default:
		log.Fatalf("vrserve: -adapt must be on or off, got %q", *adaptMode)
	}
	if *refine || *quant || cfg.Adapt != nil {
		log.Printf("training NN-S on the synthetic training set...")
		net, err := core.TrainNNS(video.MakeTrainingSet(96, 64, 16), codec.DefaultConfig(), core.DefaultTrainConfig())
		if err != nil {
			log.Fatalf("train NN-S: %v", err)
		}
		cfg.NNS = net
		if *quant {
			q, err := quantizeNNS(net)
			if err != nil {
				log.Fatalf("quantize NN-S: %v", err)
			}
			cfg.QuantNNS = q
			cfg.SkipResidual = true
			cfg.SkipThreshold = *skipThresh
			log.Printf("NN-S compiled to int8 (%d weight bytes, skip-threshold %d)", q.WeightBytes(), *skipThresh)
		}
	}

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "serve smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("serve smoke: OK")
		return
	}

	srv, err := serve.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Bind before announcing readiness so -addr 127.0.0.1:0 resolves to a
	// concrete port a supervising gateway can dial.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(baseURL(ln.Addr())), 0o644); err != nil {
			log.Fatalf("ready-file: %v", err)
		}
	}
	log.Printf("vrserve listening on %s (sessions<=%d, workers=%d)", ln.Addr(), *maxSessions, cfg.Workers)
	if err := http.Serve(ln, withDebug(srv.Handler())); err != nil {
		log.Fatal(err)
	}
}

// baseURL renders a bound listener address as a dialable base URL,
// substituting loopback for the unspecified host.
func baseURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// quantizeNNS compiles a trained float NN-S to the int8 execution tier.
// The calibration set is synthetic sandwich-shaped input: every sandwich
// channel only ever carries {0, 0.5, 1} (binary anchor masks and the
// 2-bit MV reconstruction), so random draws from that alphabet exercise
// the full activation range the deployed net will see.
func quantizeNNS(net *nn.RefineNet) (*nn.QuantRefineNet, error) {
	rng := rand.New(rand.NewSource(1))
	var calib []*tensor.Tensor
	for i := 0; i < 4; i++ {
		x := tensor.New(3, 48, 64)
		for j := range x.Data {
			x.Data[j] = float32(rng.Intn(3)) / 2
		}
		calib = append(calib, x)
	}
	return nn.NewQuantRefineNet(net, calib)
}

// withDebug mounts expvar and pprof beside the serving API.
func withDebug(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// runSmoke is the end-to-end self-test: one stream through the load
// generator, one chunk over loopback HTTP, masks checked, clean shutdown.
func runSmoke(cfg serve.Config) error {
	v := video.Generate(video.SceneSpec{
		Name: "smoke", W: 64, H: 48, Frames: 16, Seed: 42, Noise: 1.0,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 10, X: 24, Y: 24,
			VX: 1.5, VY: 0.75, Intensity: 220, Foreground: true,
		}},
	})
	st, err := codec.Encode(v, codec.DefaultConfig())
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}

	// The adaptation tier serves from its own leg (8): legs 1–4 pin
	// bit-identical serving against the reference, which Adapt nil keeps by
	// construction.
	adaptTier := cfg.Adapt != nil
	cfg.Adapt = nil

	// Legs 1–4 run the float path; when -quant compiled an int8 NN-S, leg 5
	// below serves it (with residual skipping) from the full config and
	// gates its accuracy against the float reference collected here.
	qcfg := cfg
	cfg.QuantNNS = nil
	cfg.SkipResidual = false
	cfg.SkipThreshold = 0
	// Likewise the QoS ladder: legs 1–4 pin bit-identical serving, which
	// only the binary pre-ladder policy guarantees; leg 7 serves the ladder
	// from its own overloaded server.
	qosLadder := cfg.QoS != nil
	cfg.QoS = nil

	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}

	// Leg 1: the load generator against the server core. The masks double
	// as the reference the multi-stream leg below must reproduce exactly, and
	// the B-frame F-scores against ground truth anchor the quant gate.
	frames := 0
	refMasks := make(map[int][]byte)
	var refMu sync.Mutex
	var refFSum float64
	refFN := 0
	gen := &serve.LoadGen{
		Server:  srv,
		Streams: 1,
		Chunks:  func(int) [][]byte { return [][]byte{st.Data, st.Data} },
		OnResult: func(_ int, r serve.FrameResult) {
			if r.Mask != nil {
				frames++
				refMu.Lock()
				refMasks[r.Display] = append([]byte(nil), r.Mask.Pix...)
				if r.Type == codec.BFrame {
					refFSum += segment.PixelFScore(r.Mask, v.Masks[r.Display%16])
					refFN++
				}
				refMu.Unlock()
			}
		},
	}
	rep, err := gen.Run(context.Background())
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	if rep.Admitted != 1 || rep.Frames != 2*16 {
		return fmt.Errorf("loadgen served %d frames over %d streams, want 32 over 1", rep.Frames, rep.Admitted)
	}
	if frames == 0 {
		return fmt.Errorf("loadgen produced no masks")
	}

	// Leg 2: one chunk over real HTTP.
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	resp, err := http.Post(base+"/v1/sessions", "", nil)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	var open struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&open); err != nil {
		return err
	}
	resp.Body.Close()
	resp, err = http.Post(base+"/v1/sessions/"+open.ID+"/chunks", "application/octet-stream", bytes.NewReader(st.Data))
	if err != nil {
		return fmt.Errorf("chunk: %w", err)
	}
	var cr struct {
		Frames []struct {
			Display    int  `json:"display"`
			Dropped    bool `json:"dropped"`
			Foreground int  `json:"foreground"`
		} `json:"frames"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return err
	}
	resp.Body.Close()
	if len(cr.Frames) != 16 {
		return fmt.Errorf("HTTP served %d frames, want 16", len(cr.Frames))
	}
	for _, fr := range cr.Frames {
		if !fr.Dropped && fr.Foreground == 0 {
			return fmt.Errorf("frame %d: empty mask", fr.Display)
		}
	}

	// Leg 3: fault recovery over HTTP — a truncated chunk must come back
	// 400, the same session must then serve a clean chunk (quarantine +
	// resync), and the recovery counters must show up in /metrics.
	info, err := codec.ProbeStream(st.Data)
	if err != nil {
		return err
	}
	bad := st.Data[:info.HeaderBytes+(len(st.Data)-info.HeaderBytes)/2]
	resp, err = http.Post(base+"/v1/sessions/"+open.ID+"/chunks", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		return fmt.Errorf("corrupt chunk: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("corrupt chunk: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/sessions/"+open.ID+"/chunks", "application/octet-stream", bytes.NewReader(st.Data))
	if err != nil {
		return fmt.Errorf("chunk after corruption: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chunk after corruption: status %d, want 200 (session did not resync)", resp.StatusCode)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		return err
	}
	resp.Body.Close()
	if metrics.Counters[obs.CounterDecodeErrors.String()] == 0 ||
		metrics.Counters[obs.CounterResyncs.String()] == 0 {
		return fmt.Errorf("recovery counters missing from /metrics: %v", metrics.Counters)
	}

	// Clean shutdown: HTTP first, then the drain.
	sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Close(sdCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	// Leg 4: four concurrent streams through one server sharing its worker
	// pool, every mask bit-identical to the leg-1 reference.
	mcfg := cfg
	mcfg.Obs = obs.New()
	msrv, err := serve.NewServer(mcfg)
	if err != nil {
		return fmt.Errorf("multi-stream server: %w", err)
	}
	var multiErr error
	mgen := &serve.LoadGen{
		Server:  msrv,
		Streams: 4,
		Chunks:  func(int) [][]byte { return [][]byte{st.Data, st.Data} },
		OnResult: func(stream int, r serve.FrameResult) {
			if r.Mask == nil {
				return
			}
			refMu.Lock()
			want, ok := refMasks[r.Display]
			if multiErr == nil && (!ok || !bytes.Equal(r.Mask.Pix, want)) {
				multiErr = fmt.Errorf("stream %d frame %d: multi-stream mask differs from single-stream reference", stream, r.Display)
			}
			refMu.Unlock()
		},
	}
	mrep, err := mgen.Run(context.Background())
	if err != nil {
		return fmt.Errorf("multi-stream loadgen: %w", err)
	}
	if err := msrv.Close(sdCtx); err != nil {
		return fmt.Errorf("multi-stream drain: %w", err)
	}
	if multiErr != nil {
		return multiErr
	}
	if mrep.Admitted != 4 || mrep.Frames != 4*2*16 {
		return fmt.Errorf("multi-stream leg served %d frames over %d streams, want 128 over 4", mrep.Frames, mrep.Admitted)
	}

	// Leg 5 (only under -quant): the int8 tier with residual-driven
	// skipping. Two streams through a quant+skip server; the mean B-frame
	// F-score against ground truth must stay within 0.5 points of the
	// float reference, and the per-block skip counters must surface over
	// the server-wide /metrics endpoint.
	if qcfg.QuantNNS != nil {
		if refFN == 0 {
			return fmt.Errorf("quant leg has no refined float reference (NN-S missing?)")
		}
		qcfg.Obs = obs.New()
		qsrv, err := serve.NewServer(qcfg)
		if err != nil {
			return fmt.Errorf("quant server: %w", err)
		}
		var qSum float64
		qN := 0
		qgen := &serve.LoadGen{
			Server:  qsrv,
			Streams: 2,
			Chunks:  func(int) [][]byte { return [][]byte{st.Data, st.Data} },
			OnResult: func(_ int, r serve.FrameResult) {
				if r.Mask == nil || r.Type != codec.BFrame {
					return
				}
				refMu.Lock()
				qSum += segment.PixelFScore(r.Mask, v.Masks[r.Display%16])
				qN++
				refMu.Unlock()
			},
		}
		qrep, err := qgen.Run(context.Background())
		if err != nil {
			return fmt.Errorf("quant loadgen: %w", err)
		}
		if qrep.Admitted != 2 || qrep.Frames != 2*2*16 {
			return fmt.Errorf("quant leg served %d frames over %d streams, want 64 over 2", qrep.Frames, qrep.Admitted)
		}

		// The counters must be visible over HTTP, not just in-process.
		qhs := &http.Server{Handler: qsrv.Handler()}
		qln, err := listenLoopback()
		if err != nil {
			return err
		}
		go qhs.Serve(qln)
		resp, err = http.Get("http://" + qln.Addr().String() + "/metrics")
		if err != nil {
			return fmt.Errorf("quant metrics: %w", err)
		}
		var qm struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qm); err != nil {
			return err
		}
		resp.Body.Close()
		qsd, qcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer qcancel()
		if err := qhs.Shutdown(qsd); err != nil {
			return fmt.Errorf("quant http shutdown: %w", err)
		}
		if err := qsrv.Close(qsd); err != nil {
			return fmt.Errorf("quant drain: %w", err)
		}
		if qm.Counters[obs.CounterQuantBlocksSkipped.String()]+qm.Counters[obs.CounterQuantBlocksDirty.String()] == 0 {
			return fmt.Errorf("quant leg recorded no residual-skip counters in /metrics: %v", qm.Counters)
		}
		fFloat := refFSum / float64(refFN)
		fQuant := qSum / float64(qN)
		if fFloat-fQuant > 0.005 {
			return fmt.Errorf("int8 B-frame F-score %.4f vs float %.4f: delta %.4f exceeds the 0.5-point gate", fQuant, fFloat, fFloat-fQuant)
		}
	}

	// Leg 6 (only under -cache-mb): the shared content cache. Four viewers
	// of one content through a cached server — every mask must equal the
	// leg-1 uncached reference byte-for-byte, and the cache hit counters
	// must surface over the HTTP /metrics endpoint.
	if cfg.CacheBytes > 0 {
		ccfg := cfg
		ccfg.Obs = obs.New()
		csrv, err := serve.NewServer(ccfg)
		if err != nil {
			return fmt.Errorf("cached server: %w", err)
		}
		var cacheErr error
		cgen := &serve.LoadGen{
			Server:  csrv,
			Streams: 4,
			Chunks:  func(int) [][]byte { return [][]byte{st.Data, st.Data} },
			OnResult: func(stream int, r serve.FrameResult) {
				if r.Mask == nil {
					return
				}
				refMu.Lock()
				want, ok := refMasks[r.Display]
				if cacheErr == nil && (!ok || !bytes.Equal(r.Mask.Pix, want)) {
					cacheErr = fmt.Errorf("stream %d frame %d: cache-served mask differs from uncached reference", stream, r.Display)
				}
				refMu.Unlock()
			},
		}
		crep, err := cgen.Run(context.Background())
		if err != nil {
			return fmt.Errorf("cached loadgen: %w", err)
		}
		chs := &http.Server{Handler: csrv.Handler()}
		cln, err := listenLoopback()
		if err != nil {
			return err
		}
		go chs.Serve(cln)
		resp, err = http.Get("http://" + cln.Addr().String() + "/metrics")
		if err != nil {
			return fmt.Errorf("cache metrics: %w", err)
		}
		var cm struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cm); err != nil {
			return err
		}
		resp.Body.Close()
		csd, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer ccancel()
		if err := chs.Shutdown(csd); err != nil {
			return fmt.Errorf("cache http shutdown: %w", err)
		}
		if err := csrv.Close(csd); err != nil {
			return fmt.Errorf("cached drain: %w", err)
		}
		if cacheErr != nil {
			return cacheErr
		}
		if crep.Admitted != 4 || crep.Frames != 4*2*16 {
			return fmt.Errorf("cached leg served %d frames over %d streams, want 128 over 4", crep.Frames, crep.Admitted)
		}
		hits, misses := cm.Counters[obs.CounterCacheHits.String()], cm.Counters[obs.CounterCacheMisses.String()]
		if hits == 0 || misses == 0 {
			return fmt.Errorf("cached leg hit/miss counters missing from /metrics: hits=%d misses=%d", hits, misses)
		}
	}

	// Leg 7 (only under -qos on): the adaptive QoS degradation ladder. An
	// open-loop burst of premium/free streams against tightened thresholds
	// must complete with the cheap rungs (recon/skip) actually fired, the
	// per-step counters visible over /metrics, and the session-open class
	// parameter honored (echoed back, unknown values rejected).
	if qosLadder {
		lcfg := cfg
		lcfg.Obs = obs.New()
		lcfg.Policy = serve.Wait
		// The smoke load is tiny; thresholds this low make it an overload.
		lcfg.QoS = &qos.Config{FullBelow: -1, ReconAt: 1, SkipAt: 4}
		lsrv, err := serve.NewServer(lcfg)
		if err != nil {
			return fmt.Errorf("qos server: %w", err)
		}
		lgen := &serve.LoadGen{
			Server:   lsrv,
			Streams:  3,
			Interval: time.Millisecond,
			Class: func(stream int) qos.Class {
				if stream%2 == 1 {
					return qos.ClassFree
				}
				return qos.ClassPremium
			},
			Chunks: func(int) [][]byte { return [][]byte{st.Data, st.Data, st.Data} },
		}
		lrep, err := lgen.Run(context.Background())
		if err != nil {
			return fmt.Errorf("qos loadgen: %w", err)
		}
		if lrep.Admitted != 3 || lrep.Frames != 3*3*16 {
			return fmt.Errorf("qos leg served %d frames over %d streams, want 144 over 3", lrep.Frames, lrep.Admitted)
		}

		lhs := &http.Server{Handler: lsrv.Handler()}
		lln, err := listenLoopback()
		if err != nil {
			return err
		}
		go lhs.Serve(lln)
		lbase := "http://" + lln.Addr().String()
		resp, err = http.Post(lbase+"/v1/sessions?class=free", "", nil)
		if err != nil {
			return fmt.Errorf("qos open: %w", err)
		}
		var lopen struct {
			ID    string `json:"id"`
			Class string `json:"class"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&lopen); err != nil {
			return err
		}
		resp.Body.Close()
		if lopen.Class != "free" {
			return fmt.Errorf("open ?class=free echoed class %q", lopen.Class)
		}
		resp, err = http.Post(lbase+"/v1/sessions?class=bogus", "", nil)
		if err != nil {
			return fmt.Errorf("qos bogus open: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			return fmt.Errorf("open ?class=bogus: status %d, want 400", resp.StatusCode)
		}
		resp, err = http.Get(lbase + "/metrics")
		if err != nil {
			return fmt.Errorf("qos metrics: %w", err)
		}
		var lm struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&lm); err != nil {
			return err
		}
		resp.Body.Close()
		degraded := lm.Counters[obs.CounterQoSRecon.String()] + lm.Counters[obs.CounterQoSSkip.String()]
		total := degraded + lm.Counters[obs.CounterQoSFull.String()] + lm.Counters[obs.CounterQoSRefine.String()]
		if total == 0 || degraded == 0 {
			return fmt.Errorf("qos ladder counters missing from /metrics (total=%d degraded=%d): %v", total, degraded, lm.Counters)
		}
		lsd, lcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer lcancel()
		if err := lhs.Shutdown(lsd); err != nil {
			return fmt.Errorf("qos http shutdown: %w", err)
		}
		if err := lsrv.Close(lsd); err != nil {
			return fmt.Errorf("qos drain: %w", err)
		}
	}

	// Leg 8 (only under -adapt on): the online adaptation tier. Sub-leg A
	// pins the safety direction — a trainer whose promotion bar is
	// unreachable must not change one served byte versus the leg-1 reference,
	// while its shadow activity (harvested pseudo-labels, fine-tune steps)
	// surfaces over /metrics. Sub-leg B pins the liveness direction — forced
	// promotions must climb the promotions counter and the weights-version
	// gauge while frames keep being served across the swaps.
	if adaptTier && cfg.NNS != nil {
		runAdaptLeg := func(acfg serve.Config, think time.Duration, check func(*serve.LoadGen) error) (*obs.Report, error) {
			asrv, err := serve.NewServer(acfg)
			if err != nil {
				return nil, err
			}
			agen := &serve.LoadGen{
				Server:  asrv,
				Streams: 1,
				Think:   think,
				Chunks:  func(int) [][]byte { return [][]byte{st.Data, st.Data, st.Data} },
			}
			if err := check(agen); err != nil {
				return nil, err
			}
			if _, err := agen.Run(context.Background()); err != nil {
				return nil, err
			}
			// The trainer works in the post-run idle; give its counters a
			// moment to move before reading the HTTP surface.
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if acfg.Obs.Snapshot().Counters[obs.CounterAdaptSteps.String()] > 0 {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			ahs := &http.Server{Handler: asrv.Handler()}
			aln, err := listenLoopback()
			if err != nil {
				return nil, err
			}
			go ahs.Serve(aln)
			resp, err := http.Get("http://" + aln.Addr().String() + "/metrics")
			if err != nil {
				return nil, fmt.Errorf("adapt metrics: %w", err)
			}
			var am obs.Report
			if err := json.NewDecoder(resp.Body).Decode(&am); err != nil {
				return nil, err
			}
			resp.Body.Close()
			asd, acancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer acancel()
			if err := ahs.Shutdown(asd); err != nil {
				return nil, fmt.Errorf("adapt http shutdown: %w", err)
			}
			if err := asrv.Close(asd); err != nil {
				return nil, fmt.Errorf("adapt drain: %w", err)
			}
			return &am, nil
		}

		// Sub-leg A: promotion bar unreachable (F-scores never exceed 1).
		acfg := cfg
		acfg.Obs = obs.New()
		acfg.Adapt = &adapt.Config{MinImprove: 10}
		var adaptErr error
		am, err := runAdaptLeg(acfg, 50*time.Millisecond, func(g *serve.LoadGen) error {
			g.OnResult = func(stream int, r serve.FrameResult) {
				if r.Mask == nil {
					return
				}
				refMu.Lock()
				// The leg serves one more copy of the chunk than the leg-1
				// reference covers; identical bytes serve identical masks, so
				// the reference wraps at its two-chunk span.
				want, ok := refMasks[r.Display%32]
				if adaptErr == nil && (!ok || !bytes.Equal(r.Mask.Pix, want)) {
					adaptErr = fmt.Errorf("adapt leg A: stream %d frame %d: mask differs from no-adapt reference", stream, r.Display)
				}
				refMu.Unlock()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("adapt leg A: %w", err)
		}
		if adaptErr != nil {
			return adaptErr
		}
		if n := am.Counters[obs.CounterAdaptExamples.String()]; n == 0 {
			return fmt.Errorf("adapt leg A: no pseudo-labels harvested in /metrics")
		}
		if n := am.Counters[obs.CounterAdaptSteps.String()]; n == 0 {
			return fmt.Errorf("adapt leg A: no shadow fine-tune steps in /metrics")
		}
		if n := am.Counters[obs.CounterAdaptPromotions.String()]; n != 0 {
			return fmt.Errorf("adapt leg A: unreachable promotion bar promoted %d times", n)
		}

		// Sub-leg B: forced promotions (negative margin, frequent evals).
		bcfg := cfg
		bcfg.Obs = obs.New()
		bcfg.Adapt = &adapt.Config{MinImprove: -1, EvalEvery: 2}
		bframes := 0
		bm, err := runAdaptLeg(bcfg, 100*time.Millisecond, func(g *serve.LoadGen) error {
			g.OnResult = func(_ int, r serve.FrameResult) {
				if r.Mask != nil {
					bframes++
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("adapt leg B: %w", err)
		}
		if bframes != 3*16 {
			return fmt.Errorf("adapt leg B: served %d masks across the swaps, want 48", bframes)
		}
		if n := bm.Counters[obs.CounterAdaptPromotions.String()]; n == 0 {
			return fmt.Errorf("adapt leg B: forced promotions never surfaced in /metrics")
		}
		var version int64
		for _, g := range bm.Gauges {
			if g.Name == obs.GaugeAdaptVersion.String() {
				version = g.Current
			}
		}
		if version == 0 {
			return fmt.Errorf("adapt leg B: weights-version gauge never moved: %v", bm.Gauges)
		}
	}
	return nil
}

// listenLoopback binds an ephemeral loopback port for the smoke test.
func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
