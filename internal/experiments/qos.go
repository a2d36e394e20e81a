package experiments

import (
	"context"
	"sync"
	"time"

	"vrdann/internal/obs"
	"vrdann/internal/qos"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
	"vrdann/internal/video"
)

// QoSRow is one point of the overload degradation sweep: the same stream
// population offered open-loop at one arrival interval to a ladder-enabled
// server. As the interval shrinks past capacity the ladder, not the queue,
// absorbs the excess: p95 stays bounded while mean B-frame IoU decays and
// the served rungs shift from refine toward recon and skip.
type QoSRow struct {
	IntervalMS float64 `json:"intervalMs"`
	Streams    int     `json:"streams"`
	Frames     int     `json:"frames"`
	Dropped    int     `json:"dropped"`
	FPS        float64 `json:"fps"`
	P50MS      float64 `json:"p50Ms"`
	P95MS      float64 `json:"p95Ms"`
	P99MS      float64 `json:"p99Ms"`
	// BackoffMS is the summed admission-retry backoff the load generator
	// excluded from its FPS denominator (satellite: backoff is reported,
	// not folded into throughput).
	BackoffMS float64 `json:"backoffMs"`
	// MeanIoU is over served B-frames against ground truth; dropped
	// B-frames count as zero — shedding has a quality price, the figure
	// shows it.
	MeanIoU float64 `json:"meanIoU"`
	// PremiumIoU/FreeIoU split MeanIoU by QoS class: free sessions degrade
	// at FreeBias of the premium pressure, so their quality decays first.
	PremiumIoU float64 `json:"premiumIoU"`
	FreeIoU    float64 `json:"freeIoU"`
	// Ladder-step counters (server-wide).
	StepFull   int64 `json:"stepFull"`
	StepRefine int64 `json:"stepRefine"`
	StepRecon  int64 `json:"stepRecon"`
	StepSkip   int64 `json:"stepSkip"`
}

// qosSweep is the arrival-interval axis, fastest last. The spread is wide
// enough that the lightest point serves mostly on the refinement rung and
// the heaviest sheds.
var qosSweep = []time.Duration{600 * time.Millisecond, 60 * time.Millisecond, 6 * time.Millisecond}

// QoSFigure runs the open-loop overload sweep against the adaptive QoS
// ladder. Streams alternate premium/free classes; each serves its own suite
// video so IoU is scored against per-stream ground truth.
func (h *Harness) QoSFigure() ([]QoSRow, error) {
	suite := h.Suite()
	nns, err := h.NNS()
	if err != nil {
		return nil, err
	}
	const streams, chunksPer = 6, 4
	// Each suite video is served by a premium stream and a free stream, so
	// the per-class IoU split compares identical content, not video
	// difficulty.
	videoFor := func(i int) *video.Video { return suite[(i/2)%len(suite)] }
	classFor := func(i int) qos.Class {
		if i%2 == 1 {
			return qos.ClassFree
		}
		return qos.ClassPremium
	}
	// Thresholds are pressures (queued frames per worker), scaled to the
	// opening burst: all streams submit their first chunk at once, so the
	// depth starts at streams x chunk frames even when arrivals then pace
	// far below capacity. The premium ladder tolerates that burst (refine);
	// free sessions, biased to half the thresholds, degrade already at the
	// light point — the class split the figure is after.
	burst := float64(streams*h.Cfg.Frames) / float64(h.workers())
	ladder := qos.Config{FullBelow: -1, ReconAt: 1.33 * burst, SkipAt: 1.83 * burst}

	rows := make([]QoSRow, 0, len(qosSweep))
	for _, interval := range qosSweep {
		opened := 0
		col := obs.New()
		srv, err := serve.NewServer(serve.Config{
			MaxSessions: streams,
			Workers:     h.workers(),
			NNS:         nns,
			NewSegmenter: func(id string) segment.Segmenter {
				v := videoFor(opened)
				opened++
				return h.nnlFor(v, "NN-L(FAVOS)", h.Cfg.FAVOSNoise, 3)
			},
			Policy:      serve.Wait,
			FrameBudget: 2 * time.Second,
			QoS:         &ladder,
			Obs:         col,
		})
		if err != nil {
			return nil, err
		}
		var mu sync.Mutex
		var sums [2]float64 // indexed by class
		var ns [2]int
		gen := &serve.LoadGen{
			Server:   srv,
			Streams:  streams,
			Interval: interval,
			Class:    classFor,
			Chunks: func(i int) [][]byte {
				st, err := h.StreamFor(videoFor(i), h.Cfg.Enc)
				if err != nil {
					return nil
				}
				cs := make([][]byte, chunksPer)
				for c := range cs {
					cs[c] = st.Data
				}
				return cs
			},
			OnResult: func(stream int, r serve.FrameResult) {
				v := videoFor(stream)
				if !r.Type.IsAnchor() {
					mu.Lock()
					cl := classFor(stream)
					ns[cl]++
					if r.Mask != nil {
						sums[cl] += segment.IoU(r.Mask, v.Masks[r.Display%len(v.Masks)])
					}
					mu.Unlock()
				}
			},
		}
		rep, err := gen.Run(context.Background())
		if cerr := srv.Close(context.Background()); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		snap := col.Snapshot()
		meanOf := func(cl qos.Class) float64 {
			if ns[cl] == 0 {
				return 0
			}
			return sums[cl] / float64(ns[cl])
		}
		var mean float64
		if n := ns[qos.ClassPremium] + ns[qos.ClassFree]; n > 0 {
			mean = (sums[qos.ClassPremium] + sums[qos.ClassFree]) / float64(n)
		}
		rows = append(rows, QoSRow{
			IntervalMS: ms(interval),
			Streams:    streams,
			Frames:     rep.Frames,
			Dropped:    rep.Dropped,
			FPS:        rep.FPS,
			P50MS:      ms(rep.P50),
			P95MS:      ms(rep.P95),
			P99MS:      ms(rep.P99),
			BackoffMS:  ms(rep.Backoff),
			MeanIoU:    mean,
			PremiumIoU: meanOf(qos.ClassPremium),
			FreeIoU:    meanOf(qos.ClassFree),
			StepFull:   snap.Counters[obs.CounterQoSFull.String()],
			StepRefine: snap.Counters[obs.CounterQoSRefine.String()],
			StepRecon:  snap.Counters[obs.CounterQoSRecon.String()],
			StepSkip:   snap.Counters[obs.CounterQoSSkip.String()],
		})
	}
	return rows, nil
}
