// Package adapt is the online per-stream adaptation tier: it fine-tunes a
// private clone of NN-S on pseudo-labels harvested from the stream's own
// NN-L anchor segmentations, entirely in the shadow of serving.
//
// VR-DANN ships one frozen NN-S, trained offline, and every stream pays for
// that generality: content the training set never saw (different object
// shapes, deformation statistics, illumination) refines worse than content
// it did. But the serving pipeline already produces exactly the supervision
// an online learner needs — every anchor frame gets a real NN-L
// segmentation, and NN-S's whole job is to reproduce NN-L-quality masks
// from coarse reconstructions. So each session can treat its own anchors as
// a free, continuously refreshed training set: degrade an anchor's NN-L
// mask to the 2-bit reconstruction alphabet, sandwich it between its
// neighbouring anchors, and train the clone to recover the NN-L mask. That
// is the same input contract NN-S serves under, built without ground truth.
//
// Three rules keep the tier safe, in priority order:
//
//  1. Training never delays a frame. The trainer is a single background
//     goroutine gated on the serving scheduler's idleness signal (no frame
//     pending, no session waiting for a worker); it takes short
//     bounded step bursts and re-checks idleness before every step and
//     every promotion evaluation.
//  2. Serving weights only improve. A candidate is promoted only when it
//     beats the currently serving weights on the freshest pseudo-labels by
//     a margin, and every promotion is validated against the session's
//     rolling refined-vs-anchor F-score: a regression rolls the session
//     back to a snapshot of the previous weights (SaveParams/LoadParams).
//  3. Adapted sessions are cache-isolated. Every swap bumps a weights
//     version that the serving layer folds into the session's content-cache
//     fingerprint, so a session running adapted weights can never serve —
//     or poison — masks cached under the base model's key.
package adapt

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// Config tunes one session's Adapter. The zero value of every tuning field
// selects a sensible default; Base is the only required field.
type Config struct {
	// Base is the serving NN-S at session open. The adapter trains a clone;
	// the network itself is never mutated.
	Base *nn.RefineNet
	// Idle reports whether the serving scheduler currently has no frame
	// work. The trainer only steps while Idle returns true, re-checking
	// before every step. A nil Idle trains whenever examples exist (tests).
	Idle func() bool
	// Quantize, when non-nil, compiles promoted weights for the int8
	// execution tier. It runs on the trainer goroutine, off the serving
	// path. A quantization error vetoes the promotion.
	Quantize func(*nn.RefineNet) (*nn.QuantRefineNet, error)
	// Obs receives per-session adaptation metrics; ServerObs mirrors them
	// server-wide (both nil-safe).
	Obs, ServerObs *obs.Collector

	// MaxExamples bounds the pseudo-label ring (default 12 anchors).
	MaxExamples int
	// MinExamples is the harvest size below which the trainer stays idle
	// (default 3 — one sandwich triple).
	MinExamples int
	// LR is the fine-tune learning rate (default 0.02).
	LR float64
	// Optimizer selects "adam" (default) or "sgd".
	Optimizer string
	// Momentum applies to the sgd optimizer (default 0.9).
	Momentum float64
	// BlockSize is the block granularity at which anchor masks are degraded
	// to the 2-bit reconstruction alphabet for training inputs (default 8,
	// the codec macro-block).
	BlockSize int
	// TrainScale downsamples training inputs by this factor (default 1, no
	// downsampling). The convolutional weights are resolution-agnostic, so
	// fine-tuning at half resolution teaches the same boundary statistics at
	// a quarter of the per-step cost — which bounds how long a straggler
	// step (one that started in an idle gap a frame then arrived into) can
	// compete with serving on a starved machine. The degradation block
	// shrinks with the scale so the coarseness profile matches serving.
	TrainScale int
	// StepsPerBurst bounds consecutive fine-tune steps per idle wakeup
	// (default 4), so a long idle gap cannot starve the Go scheduler.
	StepsPerBurst int
	// MaxSteps bounds total fine-tune steps for the session (0 = unbounded).
	MaxSteps int64
	// EvalEvery is the step interval between promotion evaluations
	// (default 8).
	EvalEvery int
	// MinImprove is how much the candidate must beat the serving weights'
	// F-score on held-out pseudo-labels to be promoted (default 0.005).
	// Negative values force promotion at every evaluation — a test and
	// smoke hook, mirroring the QoS ladder's negative thresholds.
	MinImprove float64
	// DriftWindow is the rolling refined-vs-anchor F-score window length in
	// B-frames (default 16).
	DriftWindow int
	// RollbackAfter is how many drift samples a fresh promotion is judged
	// on (default 4); RollbackMargin is the rolling-F drop below the
	// pre-promotion baseline that triggers rollback (default 0.05).
	RollbackAfter  int
	RollbackMargin float64
	// IdlePoll is the trainer's wakeup period when no harvest activity
	// nudges it (default 2ms).
	IdlePoll time.Duration
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.MaxExamples <= 0 {
		d.MaxExamples = 12
	}
	if d.MinExamples < 3 {
		d.MinExamples = 3
	}
	if d.LR <= 0 {
		d.LR = 0.02
	}
	if d.Optimizer == "" {
		d.Optimizer = "adam"
	}
	if d.Momentum <= 0 {
		d.Momentum = 0.9
	}
	if d.BlockSize <= 0 {
		d.BlockSize = 8
	}
	if d.TrainScale <= 0 {
		d.TrainScale = 1
	}
	if d.StepsPerBurst <= 0 {
		d.StepsPerBurst = 4
	}
	if d.EvalEvery <= 0 {
		d.EvalEvery = 8
	}
	if d.MinImprove == 0 {
		d.MinImprove = 0.005
	}
	if d.DriftWindow <= 0 {
		d.DriftWindow = 16
	}
	if d.RollbackAfter <= 0 {
		d.RollbackAfter = 4
	}
	if d.RollbackMargin <= 0 {
		d.RollbackMargin = 0.05
	}
	if d.IdlePoll <= 0 {
		d.IdlePoll = 2 * time.Millisecond
	}
	return d
}

// Example is one harvested pseudo-label: the luma of an anchor frame and
// the NN-L segmentation the pipeline computed for it. Both are retained by
// reference; the serving layer treats computed masks and decoded frames as
// immutable once published.
type Example struct {
	Display int
	Luma    *video.Frame
	Mask    *video.Mask
}

// Promotion is one weight swap the serving layer should apply at its next
// safe boundary. Net is a dedicated clone the receiver owns; Quant is its
// int8 compilation when the session serves the quantized tier.
type Promotion struct {
	Net     *nn.RefineNet
	Quant   *nn.QuantRefineNet
	Version uint64
}

// Adapter owns one session's online-learning state: the pseudo-label ring,
// the background trainer, the promotion mailbox and the drift monitor.
// Harvest, ObserveDrift and TakePromoted are called from the serving
// worker; the trainer goroutine runs everything else.
type Adapter struct {
	cfg Config

	mu       sync.Mutex
	examples []Example
	pending  *Promotion // promotion mailbox, nil when empty
	closed   bool

	// Drift monitor (mu). drift is a ring of per-B-frame F-scores.
	drift        []float64
	driftLen     int
	driftNext    int
	driftSum     float64
	validating   bool
	validSamples int
	baselineF    float64
	rollbackReq  bool

	// Counters mirrored to tests (mu).
	steps      int64
	promotions int64
	rollbacks  int64

	// Trainer-goroutine state: never touched by serving callers.
	net         *nn.RefineNet // training clone
	serving     *nn.RefineNet // trainer's copy of the currently serving weights
	opt         nn.Optimizer
	rng         *rand.Rand
	snapshot    []byte // SaveParams of the previous serving weights
	version     uint64
	lastSkipped int64
	evalPending bool // an EvalEvery boundary passed; evaluate at the next idle slot

	stop   chan struct{}
	done   chan struct{}
	notify chan struct{} // 1-buffered trainer nudge (rollback requests)
}

// New starts a session adapter and its background trainer.
func New(cfg Config) (*Adapter, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("adapt: Config.Base is required")
	}
	c := cfg.withDefaults()
	a := &Adapter{
		cfg:     c,
		net:     c.Base.Clone(),
		serving: c.Base.Clone(),
		rng:     rand.New(rand.NewSource(1)),
		drift:   make([]float64, c.DriftWindow),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		notify:  make(chan struct{}, 1),
	}
	switch c.Optimizer {
	case "adam":
		a.opt = nn.NewAdam(c.LR)
	case "sgd":
		a.opt = nn.NewSGD(c.LR, c.Momentum)
	default:
		return nil, fmt.Errorf("adapt: unknown optimizer %q", c.Optimizer)
	}
	// Training forwards must not pollute the serving collector's per-layer
	// NN-S timings.
	a.net.SetObserver(nil)
	a.serving.SetObserver(nil)
	go a.trainLoop()
	return a, nil
}

// Close stops the trainer, waits for any in-flight step to finish, and
// discards any promotion that was not yet taken: a retiring session must
// never hand partially-validated weights to anyone.
func (a *Adapter) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		<-a.done
		return
	}
	a.closed = true
	close(a.stop)
	a.mu.Unlock()
	<-a.done
	a.mu.Lock()
	a.pending = nil
	a.mu.Unlock()
}

// Harvest records one (anchor luma, NN-L mask) pseudo-label. Call it each
// time the pipeline computes a real NN-L segmentation for the session; the
// ring keeps the freshest MaxExamples anchors.
func (a *Adapter) Harvest(display int, luma *video.Frame, mask *video.Mask) {
	if mask == nil {
		return
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.examples = append(a.examples, Example{Display: display, Luma: luma, Mask: mask})
	if len(a.examples) > a.cfg.MaxExamples {
		a.examples = a.examples[1:]
	}
	a.mu.Unlock()
	a.count(obs.CounterAdaptExamples, 1)
}

// ObserveDrift records one refined-vs-anchor F-score sample — the rolling
// quality signal the promotion contract is validated against. pred is a
// refined B-frame mask, anchor the nearest anchor's NN-L mask. When a
// promotion is under validation and the window regresses past the rollback
// margin, a rollback is requested (executed by the trainer, which reloads
// the snapshot even under load — protecting quality is not optional work).
func (a *Adapter) ObserveDrift(pred, anchor *video.Mask) {
	if pred == nil || anchor == nil || len(pred.Pix) != len(anchor.Pix) {
		return
	}
	f := segment.PixelFScore(pred, anchor)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	if a.driftLen == len(a.drift) {
		a.driftSum -= a.drift[a.driftNext]
	} else {
		a.driftLen++
	}
	a.drift[a.driftNext] = f
	a.driftSum += f
	a.driftNext = (a.driftNext + 1) % len(a.drift)
	roll := a.driftSum / float64(a.driftLen)
	var rollback bool
	if a.validating {
		a.validSamples++
		if a.validSamples >= a.cfg.RollbackAfter {
			a.validating = false
			if roll < a.baselineF-a.cfg.RollbackMargin {
				a.rollbackReq = true
				rollback = true
			}
		}
	}
	a.mu.Unlock()
	a.gauge(obs.GaugeAdaptDriftF, int64(roll*1000))
	if rollback {
		// Nudge the trainer immediately rather than waiting out IdlePoll.
		select {
		case a.notify <- struct{}{}:
		default:
		}
	}
}

// TakePromoted returns the most recent untaken promotion, or false. The
// serving worker polls it at safe swap boundaries (chunk start, before the
// engine for the chunk is built), so in-flight work always finishes on the
// weights it started with.
func (a *Adapter) TakePromoted() (Promotion, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pending == nil || a.closed {
		return Promotion{}, false
	}
	p := *a.pending
	a.pending = nil
	return p, true
}

// Steps returns fine-tune steps taken so far.
func (a *Adapter) Steps() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.steps }

// Promotions returns how many candidate weight sets were promoted.
func (a *Adapter) Promotions() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.promotions }

// Rollbacks returns how many promotions were reverted on drift regression.
func (a *Adapter) Rollbacks() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.rollbacks }

// RollingF returns the current rolling refined-vs-anchor F-score (0 before
// any sample).
func (a *Adapter) RollingF() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.driftLen == 0 {
		return 0
	}
	return a.driftSum / float64(a.driftLen)
}

// count mirrors a counter to the session and server collectors.
func (a *Adapter) count(c obs.Counter, n int64) {
	a.cfg.Obs.Count(c, n)
	a.cfg.ServerObs.Count(c, n)
}

// gauge mirrors a gauge to the session and server collectors.
func (a *Adapter) gauge(g obs.Gauge, v int64) {
	a.cfg.Obs.GaugeSet(g, v)
	a.cfg.ServerObs.GaugeSet(g, v)
}

// trainLoop is the background trainer: wake, honour rollback requests,
// then take a bounded burst of fine-tune steps while the scheduler is idle.
func (a *Adapter) trainLoop() {
	defer close(a.done)
	tick := time.NewTicker(a.cfg.IdlePoll)
	defer tick.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-a.notify:
		case <-tick.C:
		}
		if a.takeRollbackReq() {
			a.rollback()
			continue
		}
		for i := 0; i < a.cfg.StepsPerBurst; i++ {
			select {
			case <-a.stop:
				return
			default:
			}
			if a.cfg.Idle != nil && !a.cfg.Idle() {
				break
			}
			// A promotion evaluation is several forward passes plus snapshot
			// serialization — far longer than one fine-tune step — so it takes
			// a burst slot of its own behind the same idleness check, instead
			// of riding un-gated on the tail of the step that earned it.
			if a.evalPending {
				a.evalPending = false
				a.maybePromote()
				continue
			}
			if !a.trainStep() {
				break
			}
		}
	}
}

func (a *Adapter) takeRollbackReq() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.rollbackReq
	a.rollbackReq = false
	return r
}

// sampleTriple picks a random run of three consecutive harvested anchors.
func (a *Adapter) sampleTriple() (prev, mid, next Example, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.examples) < a.cfg.MinExamples {
		return Example{}, Example{}, Example{}, false
	}
	i := 1 + a.rng.Intn(len(a.examples)-2)
	return a.examples[i-1], a.examples[i], a.examples[i+1], true
}

// latestTriples returns up to n of the freshest consecutive-anchor triples
// for promotion evaluation.
func (a *Adapter) latestTriples(n int) [][3]Example {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out [][3]Example
	for i := len(a.examples) - 2; i >= 1 && len(out) < n; i-- {
		out = append(out, [3]Example{a.examples[i-1], a.examples[i], a.examples[i+1]})
	}
	return out
}

// sandwichFor builds the NN-S training input for a triple: the middle
// anchor's NN-L mask degraded to the 2-bit block reconstruction alphabet,
// flanked by its neighbouring anchors' masks — the same contract NN-S
// serves under, with the NN-L mask itself as the label. Masks are
// subsampled by TrainScale first (with the degradation block shrunk to
// match), so training cost scales down without changing what is taught.
func (a *Adapter) sandwichFor(prev, mid, next Example) (*tensor.Tensor, *tensor.Tensor) {
	pm := DownscaleMask(prev.Mask, a.cfg.TrainScale)
	mm := DownscaleMask(mid.Mask, a.cfg.TrainScale)
	nm := DownscaleMask(next.Mask, a.cfg.TrainScale)
	block := a.cfg.BlockSize / a.cfg.TrainScale
	if block < 1 {
		block = 1
	}
	rec := DegradeMask(mm, block)
	return segment.Sandwich(pm, rec, nm), segment.MaskToTensor(mm)
}

// trainStep runs one fine-tune step; false means no work was available.
func (a *Adapter) trainStep() bool {
	if a.cfg.MaxSteps > 0 && a.Steps() >= a.cfg.MaxSteps {
		return false
	}
	prev, mid, next, ok := a.sampleTriple()
	if !ok {
		return false
	}
	x, target := a.sandwichFor(prev, mid, next)
	logits := a.net.Forward(x)
	loss, grad := nn.BCEWithLogits(logits, target)
	a.net.Backward(grad)
	a.opt.Step(a.net.Params(), a.net.Grads())
	if sk := a.opt.SkippedUpdates(); sk > a.lastSkipped {
		a.count(obs.CounterAdaptBadGrads, sk-a.lastSkipped)
		a.lastSkipped = sk
	}
	a.count(obs.CounterAdaptSteps, 1)
	a.gauge(obs.GaugeAdaptLoss, int64(loss*1000))
	a.mu.Lock()
	a.steps++
	steps := a.steps
	a.mu.Unlock()
	if steps%int64(a.cfg.EvalEvery) == 0 {
		a.evalPending = true
	}
	return true
}

// evalF scores a network's refined masks against the pseudo-labels of the
// given triples. The network's activation caches are scratch, so both the
// candidate and the trainer's serving copy can be evaluated directly.
func (a *Adapter) evalF(net *nn.RefineNet, triples [][3]Example) float64 {
	var sum float64
	for _, t := range triples {
		x, target := a.sandwichFor(t[0], t[1], t[2])
		logits := net.Forward(x)
		m := video.NewMask(x.Shape[2], x.Shape[1])
		label := video.NewMask(x.Shape[2], x.Shape[1])
		for i, v := range logits.Data {
			if v > 0 {
				m.Pix[i] = 1
			}
			if target.Data[i] > 0.5 {
				label.Pix[i] = 1
			}
		}
		sum += segment.PixelFScore(m, label)
	}
	return sum / float64(len(triples))
}

// maybePromote compares the candidate against the serving weights on the
// freshest pseudo-labels and, if it wins by the margin, stages a promotion:
// snapshot the old weights, bump the version, re-quantize if the session
// serves int8, and leave the swap in the mailbox for the worker.
func (a *Adapter) maybePromote() {
	triples := a.latestTriples(3)
	if len(triples) == 0 {
		return
	}
	candF := a.evalF(a.net, triples)
	servF := a.evalF(a.serving, triples)
	if candF < servF+a.cfg.MinImprove {
		return
	}
	var snap bytes.Buffer
	if err := nn.SaveParams(&snap, a.serving); err != nil {
		return // keep serving; nothing was swapped
	}
	promoted := a.net.Clone()
	promoted.SetObserver(nil)
	var q *nn.QuantRefineNet
	if a.cfg.Quantize != nil {
		var err error
		if q, err = a.cfg.Quantize(promoted); err != nil {
			return // a weight set that cannot compile must not serve
		}
	}
	a.snapshot = snap.Bytes()
	a.serving = promoted
	a.version++
	a.publish(Promotion{Net: promoted.Clone(), Quant: q, Version: a.version}, true)
}

// rollback restores the snapshot taken at the last promotion and stages it
// as the next swap. The training clone restarts from the restored weights
// with a fresh optimizer — its moment estimates described the rejected
// trajectory.
func (a *Adapter) rollback() {
	if a.snapshot == nil {
		return
	}
	restored := a.cfg.Base.Clone()
	restored.SetObserver(nil)
	if err := nn.LoadParams(bytes.NewReader(a.snapshot), restored); err != nil {
		return
	}
	var q *nn.QuantRefineNet
	if a.cfg.Quantize != nil {
		var err error
		if q, err = a.cfg.Quantize(restored); err != nil {
			return
		}
	}
	a.serving = restored
	a.net = restored.Clone()
	a.net.SetObserver(nil)
	switch a.cfg.Optimizer {
	case "sgd":
		a.opt = nn.NewSGD(a.cfg.LR, a.cfg.Momentum)
	default:
		a.opt = nn.NewAdam(a.cfg.LR)
	}
	a.lastSkipped = 0
	a.snapshot = nil
	a.version++
	a.publish(Promotion{Net: restored.Clone(), Quant: q, Version: a.version}, false)
}

// publish stages a swap in the mailbox (unless the adapter closed while it
// was being built) and records it. promote distinguishes promotions from
// rollbacks in the metrics and in validation arming.
func (a *Adapter) publish(p Promotion, promote bool) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.pending = &p
	if promote {
		a.promotions++
		// Arm drift validation: the baseline is the rolling F the old
		// weights earned.
		a.validating = true
		a.validSamples = 0
		if a.driftLen > 0 {
			a.baselineF = a.driftSum / float64(a.driftLen)
		} else {
			a.baselineF = 0
		}
	} else {
		a.rollbacks++
		a.validating = false
	}
	a.mu.Unlock()
	if promote {
		a.count(obs.CounterAdaptPromotions, 1)
	} else {
		a.count(obs.CounterAdaptRollbacks, 1)
	}
	a.gauge(obs.GaugeAdaptVersion, int64(p.Version))
}

// DegradeMask block-quantizes a binary mask to the 2-bit reconstruction
// alphabet: blocks at least 3/4 foreground read white, at most 1/4 read
// black, the rest gray — the coarseness profile of an MV-copied block.
func DegradeMask(m *video.Mask, block int) *segment.ReconMask {
	rec := segment.NewReconMask(m.W, m.H)
	for by := 0; by < m.H; by += block {
		for bx := 0; bx < m.W; bx += block {
			h := block
			if by+h > m.H {
				h = m.H - by
			}
			w := block
			if bx+w > m.W {
				w = m.W - bx
			}
			var fg int
			for y := by; y < by+h; y++ {
				for x := bx; x < bx+w; x++ {
					if m.Pix[y*m.W+x] != 0 {
						fg++
					}
				}
			}
			code := uint8(segment.ReconGrayA)
			if 4*fg <= w*h {
				code = segment.ReconBlack
			} else if 4*fg >= 3*w*h {
				code = segment.ReconWhite
			}
			for y := by; y < by+h; y++ {
				for x := bx; x < bx+w; x++ {
					rec.Pix[y*m.W+x] = code
				}
			}
		}
	}
	return rec
}

// DownscaleMask subsamples a mask by an integer factor (nearest neighbour;
// factor <= 1 returns the mask unchanged).
func DownscaleMask(m *video.Mask, factor int) *video.Mask {
	if factor <= 1 {
		return m
	}
	w := m.W / factor
	h := m.H / factor
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	out := video.NewMask(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = m.Pix[y*factor*m.W+x*factor]
		}
	}
	return out
}

// SandwichCalibration builds n random sandwich-alphabet calibration tensors
// ([3,h,w] over {0, 0.5, 1}) for compiling adapted weights to int8 — the
// same input distribution the serving tier calibrates the base model on.
func SandwichCalibration(w, h, n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Tensor, n)
	for i := range out {
		t := tensor.New(3, h, w)
		for j := range t.Data {
			t.Data[j] = float32(rng.Intn(3)) / 2
		}
		out[i] = t
	}
	return out
}
