// Package qos implements the adaptive QoS degradation ladder of the
// serving layer: per-frame compute selection under overload. The paper's
// core claim is that decoder metadata lets a recognition system trade
// accuracy for compute gradually, and AccDecoder-style scheduling makes the
// same trade over decoded frame groups; this package turns the serving
// layer's binary B-frame shedding into that dial.
//
// A B-frame can be served on one of four rungs, from most expensive and
// most accurate to cheapest:
//
//	StepFull    full NN-L re-segmentation (the B-frame treated as an anchor)
//	StepRefine  NN-S refinement of the MV reconstruction (the paper's path)
//	StepRecon   raw MV reconstruction, no NN at all
//	StepSkip    shed: side info consumed, no mask produced
//
// The Controller picks a rung per frame from the instantaneous load — queue
// depth over the worker budget — and the session's QoS class (a free session degrades at a fraction of the pressure a premium
// one tolerates). Selection is a pure function of (Load, Class), so the
// same inputs always produce the same rung; determinism is part of the
// contract and is pinned by tests.
//
// On top of the per-frame selection sits a small closed loop: an EWMA of
// observed pressure drives one slower knob, the spacing of frames promoted
// to the full rung (stretched as load rises). Anchors (I/P frames) are
// never on the ladder: their segmentations are the references every later
// frame depends on.
package qos

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Step is one rung of the degradation ladder, ordered from most expensive
// (best quality) to cheapest. The zero value is StepFull, which is also how
// anchor frames — always computed in full — are reported.
type Step int

// Ladder rungs, most expensive first.
const (
	StepFull   Step = iota // full NN-L re-segmentation
	StepRefine             // NN-S refinement of the MV reconstruction
	StepRecon              // raw MV reconstruction, no NN
	StepSkip               // shed the frame

	// NumSteps bounds the Step enum; keep it last.
	NumSteps
)

var stepNames = [NumSteps]string{"full", "refine", "recon", "skip"}

// String returns the rung's short name (used in counter names and flags).
func (s Step) String() string {
	if s >= 0 && s < NumSteps {
		return stepNames[s]
	}
	return "unknown"
}

// Class is a session's QoS tier. Premium sessions hold quality longer under
// load; free sessions are degraded first, at Config.FreeBias of the
// premium pressure thresholds.
type Class int

// QoS classes.
const (
	ClassPremium Class = iota
	ClassFree
)

// String returns the class's wire name.
func (c Class) String() string {
	if c == ClassFree {
		return "free"
	}
	return "premium"
}

// ParseClass parses a wire-form class. The empty string is premium (the
// default for clients that do not speak QoS).
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "premium":
		return ClassPremium, nil
	case "free":
		return ClassFree, nil
	}
	return ClassPremium, fmt.Errorf("qos: unknown class %q (want premium or free)", s)
}

// Load is one instantaneous load observation.
type Load struct {
	// QueueDepth is the server-wide count of frames admitted but not yet
	// served.
	QueueDepth int
	// Workers is the server's shared worker budget; queue depth is
	// normalized by it so the same Config works across machine sizes.
	Workers int
}

// Pressure collapses the observation to one scalar: queued frames per
// worker. An idle server sits near 0; a server with a full per-session
// queue is far above every default threshold.
func (l Load) Pressure() float64 {
	w := l.Workers
	if w < 1 {
		w = 1
	}
	p := float64(l.QueueDepth) / float64(w)
	if p < 0 {
		return 0
	}
	return p
}

// Config parameterizes a Controller. Thresholds are pressures (see
// Load.Pressure); a zero value selects the documented default, a negative
// value disables that rung outright (the knob tests use to force a
// constant rung).
type Config struct {
	// FullBelow is the pressure below which B-frames are promoted to the
	// full NN-L rung (subject to the closed loop's promotion spacing).
	// Default 0.5; negative never promotes.
	FullBelow float64
	// ReconAt is the pressure at which refinement degrades to the raw MV
	// reconstruction. Default 4; negative degrades always.
	ReconAt float64
	// SkipAt is the pressure at which B-frames are shed entirely.
	// Default 16; negative sheds always.
	SkipAt float64
	// FreeBias scales every threshold for ClassFree sessions, so they
	// degrade at a fraction of the premium pressure. Default 0.5; must be
	// in (0, 1].
	FreeBias float64
	// Alpha is the EWMA smoothing factor of the closed loop (the slow
	// knob: promotion spacing). Default 0.2.
	Alpha float64
}

// withDefaults resolves unset (zero) fields; negative thresholds are kept
// as explicit "disable this rung" values.
func (c Config) withDefaults() Config {
	if c.FullBelow == 0 {
		c.FullBelow = 0.5
	}
	if c.ReconAt == 0 {
		c.ReconAt = 4
	}
	if c.SkipAt == 0 {
		c.SkipAt = 16
	}
	if c.FreeBias <= 0 || c.FreeBias > 1 {
		c.FreeBias = 0.5
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	return c
}

// Controller picks ladder rungs and runs the closed loop. Select is a pure
// function; Observe feeds the EWMA the slow knob reads. All methods are
// safe for concurrent use.
type Controller struct {
	cfg Config
	// ewma holds math.Float64bits of the smoothed pressure; CAS-updated so
	// many workers can Observe concurrently without a lock.
	ewma atomic.Uint64
}

// NewController builds a controller with cfg's unset fields defaulted.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// Config reports the controller's resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Select picks the ladder rung for one B-frame. It is deterministic: the
// same (Load, Class) always yields the same Step, independent of the
// controller's history. Thresholds are compared against the class-scaled
// values, so free sessions degrade at FreeBias of the premium pressure.
func (c *Controller) Select(l Load, cl Class) Step {
	p := l.Pressure()
	bias := 1.0
	if cl == ClassFree {
		bias = c.cfg.FreeBias
	}
	switch {
	case p >= c.cfg.SkipAt*bias:
		return StepSkip
	case p >= c.cfg.ReconAt*bias:
		return StepRecon
	case p < c.cfg.FullBelow*bias:
		return StepFull
	}
	return StepRefine
}

// Observe feeds one load observation into the closed loop's EWMA.
func (c *Controller) Observe(l Load) {
	p := l.Pressure()
	for {
		old := c.ewma.Load()
		prev := math.Float64frombits(old)
		next := prev + c.cfg.Alpha*(p-prev)
		if c.ewma.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Pressure reports the smoothed (EWMA) pressure the slow knob acts on.
func (c *Controller) Pressure() float64 {
	return math.Float64frombits(c.ewma.Load())
}

// ResegInterval is the closed loop's promotion spacing: a B-frame selected
// for the full rung is actually promoted only when its display index is a
// multiple of the interval. 1 promotes every selected frame (idle), the
// spacing stretches (2, then 4) as smoothed pressure approaches FullBelow,
// and 0 disables promotion entirely at and beyond it.
func (c *Controller) ResegInterval() int {
	fb := c.cfg.FullBelow
	if fb <= 0 {
		return 0
	}
	p := c.Pressure()
	switch {
	case p >= fb:
		return 0
	case p < fb/4:
		return 1
	case p < fb/2:
		return 2
	}
	return 4
}
