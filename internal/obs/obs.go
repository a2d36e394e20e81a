// Package obs is the per-stage observability layer of the pipeline: the
// software counterpart of the performance counters a VR-DANN SoC would hang
// off its agent unit (Sec IV). It exists because the overlapped pipeline's
// whole value is latency hiding — B-frame reconstruction and NN-S refinement
// running under the shadow of NN-L anchor inference — and end-to-end wall
// clock cannot show whether that overlap actually happens. The collector
// answers it directly: per-stage latency distributions (p50/p95/p99), stage
// occupancy (busy time over wall time, the software reading of the paper's
// Fig 10 queue-occupancy plots), queue-depth and in-flight-worker gauges,
// and an optional structured span trace.
//
// Design constraints, in order:
//
//  1. Zero overhead when disabled. Every method is safe (and trivially
//     cheap) on a nil *Collector, so instrumented code carries a single
//     pointer nil-check on the hot path and no time.Now call. Pipelines
//     simply leave their Obs field nil.
//  2. Allocation-free when enabled. Recording a span is a handful of atomic
//     adds into fixed arrays; histograms use fixed log2 buckets. Nothing on
//     the per-frame path allocates.
//  3. Race-clean. All state is atomic; a single collector may be shared by
//     the decode goroutine, the NN-L stage, every B-frame worker and the
//     emitter simultaneously.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage. The taxonomy mirrors the paper's
// decomposition: the video decoder (split into anchor pixel decode and
// B-frame motion-vector extraction, the "side channel" VR-DANN taps),
// NN-L anchor inference, motion-vector reconstruction, NN-S refinement
// (with its sandwich-input build and the three convolutions broken out),
// and result emission/coalescing.
type Stage uint8

// Pipeline stages, in rough dataflow order.
const (
	StageDecodeAnchor Stage = iota // I/P-frame pixel decode
	StageDecodeB                   // B-frame side-info decode (MV extraction)
	StageNNL                       // NN-L anchor segmentation / detection
	StageReconstruct               // B-frame MV reconstruction
	StageRefine                    // NN-S refinement, end to end
	StageSandwich                  // NN-S sandwich input build
	StageNNSConv1                  // NN-S conv layers (per-layer timing)
	StageNNSConv2
	StageNNSConv3
	StageEmit      // result emission / decode-order coalescing
	StageServe     // serving layer: chunk arrival -> frame result (includes queueing)
	StageBatchWait // batching engine: item enqueue -> flush start (queue delay)
	StageBatchNNS  // batching engine: one fused NN-S flush
	StageMigrate   // shard gateway: one live session migration (drain -> re-admit)

	// NumStages bounds the Stage enum; keep it last.
	NumStages
)

var stageNames = [NumStages]string{
	"decode/anchor",
	"decode/b-mv",
	"nn-l",
	"reconstruct",
	"nn-s",
	"nn-s/sandwich",
	"nn-s/conv1",
	"nn-s/conv2",
	"nn-s/conv3",
	"emit",
	"serve/frame",
	"batch/wait",
	"batch/nn-s",
	"shard/migrate",
}

// String returns the stage's report name.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Gauge identifies one occupancy gauge. Gauges track a current value and a
// high-watermark, the software reading of the agent unit's bounded queues.
type Gauge uint8

// Pipeline gauges.
const (
	GaugeJobQueue         Gauge = iota // B-frame jobs submitted but not yet finished
	GaugeEmitQueue                     // frames awaiting decode-order emission
	GaugeWorkers                       // workers currently executing a B-frame job
	GaugeRefWindow                     // reference segmentations held in the window
	GaugeSessions                      // serving layer: admitted sessions
	GaugePending                       // serving layer: frames queued but not yet served
	GaugeBatchQueue                    // batching engine: items enqueued but not yet flushed
	GaugeCacheEntries                  // content cache: entries resident
	GaugeCacheBytes                    // content cache: bytes resident
	GaugeBroadcastViewers              // broadcast mode: viewers attached across all broadcasts
	GaugeNodes                         // shard gateway: backends registered on the ring
	GaugeNodesHealthy                  // shard gateway: backends currently routable (healthy, breaker closed)
	GaugeGateSessions                  // shard gateway: client sessions tracked by the gateway
	GaugeQoSPressure                   // qos ladder: smoothed load pressure, in thousandths
	GaugeQoSBatchWidth                 // qos ladder: controller-set effective batch width
	GaugeAdaptDriftF                   // adaptation: rolling refined-vs-anchor F-score, in thousandths
	GaugeAdaptLoss                     // adaptation: last fine-tune BCE loss, in thousandths
	GaugeAdaptVersion                  // adaptation: serving weights version (0 = base model)

	// NumGauges bounds the Gauge enum; keep it last.
	NumGauges
)

var gaugeNames = [NumGauges]string{
	"job-queue",
	"emit-queue",
	"workers-busy",
	"ref-window",
	"sessions",
	"pending-frames",
	"batch-queue",
	"cache-entries",
	"cache-bytes",
	"broadcast-viewers",
	"nodes",
	"nodes-healthy",
	"gate-sessions",
	"qos/pressure-milli",
	"qos/batch-width",
	"adapt/drift-f-milli",
	"adapt/loss-milli",
	"adapt/weights-version",
}

// String returns the gauge's report name.
func (g Gauge) String() string {
	if g < NumGauges {
		return gaugeNames[g]
	}
	return "unknown"
}

// Counter identifies one monotonic event counter.
type Counter uint8

// Pipeline counters.
const (
	CounterFrames              Counter = iota // frames decoded
	CounterAnchors                            // I/P-frames decoded
	CounterBFrames                            // B-frames decoded
	CounterMVs                                // motion vectors extracted
	CounterSpans                              // spans recorded (all stages)
	CounterChunks                             // serving layer: bitstream chunks accepted
	CounterDrops                              // serving layer: B-frames dropped past deadline
	CounterRejects                            // serving layer: admission + queue rejections
	CounterDecodeErrors                       // serving layer: chunks failed mid-serve (malformed or internal)
	CounterResyncs                            // serving layer: sessions quarantined and resynced on the next chunk
	CounterBreakerTrips                       // serving layer: per-session circuit-breaker trips
	CounterBatchItems                         // batching engine: items executed through fused flushes
	CounterBatchFlushFull                     // batching engine: flushes triggered by a full batch
	CounterBatchFlushTimer                    // batching engine: flushes triggered by the MaxWait deadline
	CounterBatchFlushDrain                    // batching engine: flushes triggered by engine shutdown
	CounterBatchFlushStall                    // batching engine: flushes triggered by producer stall (no more work can arrive)
	CounterQuantBlocksSkipped                 // residual skip: B-frame blocks whose NN-S refinement was elided
	CounterQuantBlocksDirty                   // residual skip: B-frame blocks that kept NN-S refinement
	CounterQuantBlocksUnknown                 // residual skip: blocks with no usable energy field (pre-field bitstreams)
	CounterCacheHits                          // content cache: masks served from the shared cache
	CounterCacheMisses                        // content cache: lookups that had to compute
	CounterCacheEvictions                     // content cache: entries evicted by the byte budget
	CounterCacheBytesSaved                    // content cache: mask bytes served without recomputation
	CounterCacheFillAborts                    // content cache: in-flight fills invalidated by a failed step
	CounterBroadcastFrames                    // broadcast mode: frames fanned out to attached viewers
	CounterMigrations                         // shard gateway: sessions live-migrated to another backend
	CounterRebalances                         // shard gateway: migrations caused by ring-ownership change (scale up/down)
	CounterNodeBreakerTrips                   // shard gateway: node-level circuit-breaker trips
	CounterProxyErrors                        // shard gateway: backend requests that failed at node granularity
	CounterQoSFull                            // qos ladder: B-frames promoted to full NN-L re-segmentation
	CounterQoSRefine                          // qos ladder: B-frames served on the NN-S refinement rung
	CounterQoSRecon                           // qos ladder: B-frames degraded to raw MV reconstruction (no NN)
	CounterQoSSkip                            // qos ladder: B-frames shed (ladder decision or frame budget)
	CounterQoSDeadlineOverruns                // qos ladder: batched items retracted to reconstruction after aging out past FrameBudget
	CounterAdaptExamples                      // adaptation: pseudo-label examples harvested from NN-L anchors
	CounterAdaptSteps                         // adaptation: background fine-tune steps executed
	CounterAdaptBadGrads                      // adaptation: optimizer updates skipped on non-finite gradients
	CounterAdaptPromotions                    // adaptation: candidate weights promoted into serving
	CounterAdaptRollbacks                     // adaptation: promotions reverted after a drift regression

	// NumCounters bounds the Counter enum; keep it last.
	NumCounters
)

var counterNames = [NumCounters]string{
	"frames",
	"anchors",
	"b-frames",
	"mvs",
	"spans",
	"chunks",
	"drops",
	"rejects",
	"decode-errors",
	"resyncs",
	"breaker-trips",
	"batch-items",
	"batch-flush-full",
	"batch-flush-timer",
	"batch-flush-drain",
	"batch-flush-stall",
	"quant/blocks-skipped",
	"quant/blocks-dirty",
	"quant/blocks-unknown",
	"cache/hits",
	"cache/misses",
	"cache/evictions",
	"cache/bytes-saved",
	"cache/fill-aborts",
	"broadcast/fanout-frames",
	"shard/migrations",
	"shard/rebalances",
	"shard/node-breaker-trips",
	"shard/proxy-errors",
	"qos/full",
	"qos/refine",
	"qos/recon",
	"qos/skip",
	"qos/deadline-overruns",
	"adapt/examples",
	"adapt/train-steps",
	"adapt/bad-grad-steps",
	"adapt/promotions",
	"adapt/rollbacks",
}

// String returns the counter's report name.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "unknown"
}

// Hist identifies one generic value histogram. Unlike stages, which
// aggregate nanosecond durations, a Hist aggregates arbitrary non-negative
// integer samples — batch occupancies, queue depths — through the same
// log2-bucket machinery, so distribution percentiles come for free.
type Hist uint8

// Value histograms.
const (
	HistBatchOccupancy  Hist = iota // items per fused batch flush
	HistBatchQueueDepth             // per-kind queue depth sampled at enqueue

	// NumHists bounds the Hist enum; keep it last.
	NumHists
)

var histNames = [NumHists]string{
	"batch-occupancy",
	"batch-queue-depth",
}

// String returns the histogram's report name.
func (h Hist) String() string {
	if h < NumHists {
		return histNames[h]
	}
	return "unknown"
}

// KindNone marks spans with no associated frame type (e.g. per-layer
// network timings).
const KindNone byte = 0xFF

// SpanEvent is one structured trace record: which frame, of which type,
// spent how long in which stage. Start is relative to the collector epoch,
// so events from all goroutines share one timeline and can be rendered as a
// Gantt chart of the overlap (the shape of the paper's Fig 7 timelines).
type SpanEvent struct {
	Frame int           // display index; -1 when not frame-scoped
	Kind  byte          // codec frame type, or KindNone
	Stage Stage         // pipeline stage
	Start time.Duration // offset from collector epoch
	Dur   time.Duration // time spent in the stage
}

// Tracer receives every recorded span. Implementations must be safe for
// concurrent use; they run inline on pipeline goroutines, so they should be
// fast (append to a preallocated ring, write a binary record, ...).
type Tracer interface {
	Span(SpanEvent)
}

// bucketCount covers durations up to ~2^62 ns in log2 buckets; bucket i
// holds durations d with bits.Len64(d) == i, i.e. 2^(i-1) <= d < 2^i.
const bucketCount = 64

// stageAgg accumulates one log2-bucketed distribution. Stages store
// nanosecond durations in it; the generic value histograms store raw
// integer samples — the NS suffixes only name the dominant use.
type stageAgg struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	minNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [bucketCount]atomic.Int64
}

// gaugeAgg is a current value plus high-watermark.
type gaugeAgg struct {
	cur atomic.Int64
	max atomic.Int64
}

// Collector aggregates spans, gauges and counters for one pipeline run (or
// any longer window — it is never reset implicitly). The zero value is not
// usable; call New. A nil *Collector is the disabled state: every method is
// a cheap no-op.
type Collector struct {
	epoch  time.Time
	tracer Tracer
	stages [NumStages]stageAgg
	gauges [NumGauges]gaugeAgg
	hists  [NumHists]stageAgg
	ctrs   [NumCounters]atomic.Int64
}

// New returns an empty collector whose epoch is now.
func New() *Collector {
	c := &Collector{epoch: time.Now()}
	for i := range c.stages {
		c.stages[i].minNS.Store(int64(1)<<62 - 1)
	}
	for i := range c.hists {
		c.hists[i].minNS.Store(int64(1)<<62 - 1)
	}
	return c
}

// SetTracer installs a span hook. Call before the collector is shared
// across goroutines; the field is not synchronized.
func (c *Collector) SetTracer(t Tracer) {
	if c != nil {
		c.tracer = t
	}
}

// Clock returns the monotonic offset from the collector epoch — the start
// token for a later Span call. On a nil collector it returns 0 without
// reading the clock, which is what makes disabled instrumentation free.
func (c *Collector) Clock() time.Duration {
	if c == nil {
		return 0
	}
	return time.Since(c.epoch)
}

// Span records that work for frame (display index, or -1) of the given
// kind ran in stage s from start (a Clock token) until now.
func (c *Collector) Span(s Stage, frame int, kind byte, start time.Duration) {
	if c == nil {
		return
	}
	c.ObserveDur(s, frame, kind, start, time.Since(c.epoch)-start)
}

// ObserveDur records an explicit duration for stage s starting at the given
// epoch offset. Span is the usual entry point; ObserveDur exists for replay
// and tests.
func (c *Collector) ObserveDur(s Stage, frame int, kind byte, start, d time.Duration) {
	if c == nil || s >= NumStages {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	agg := &c.stages[s]
	agg.count.Add(1)
	agg.sumNS.Add(ns)
	agg.buckets[bits.Len64(uint64(ns))%bucketCount].Add(1)
	for {
		m := agg.minNS.Load()
		if ns >= m || agg.minNS.CompareAndSwap(m, ns) {
			break
		}
	}
	for {
		m := agg.maxNS.Load()
		if ns <= m || agg.maxNS.CompareAndSwap(m, ns) {
			break
		}
	}
	c.ctrs[CounterSpans].Add(1)
	if c.tracer != nil {
		c.tracer.Span(SpanEvent{Frame: frame, Kind: kind, Stage: s, Start: start, Dur: d})
	}
}

// Observe records one sample of a value histogram (negative samples clamp
// to zero). Like every recording method it is a cheap no-op on a nil
// collector.
func (c *Collector) Observe(h Hist, v int64) {
	if c == nil || h >= NumHists {
		return
	}
	if v < 0 {
		v = 0
	}
	agg := &c.hists[h]
	agg.count.Add(1)
	agg.sumNS.Add(v)
	agg.buckets[bits.Len64(uint64(v))%bucketCount].Add(1)
	for {
		m := agg.minNS.Load()
		if v >= m || agg.minNS.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := agg.maxNS.Load()
		if v <= m || agg.maxNS.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count adds n to a counter.
func (c *Collector) Count(ct Counter, n int64) {
	if c == nil || ct >= NumCounters {
		return
	}
	c.ctrs[ct].Add(n)
}

// CounterValue reads a counter's current value (0 on a nil collector).
// Cheap enough to poll per frame; the serving layer uses it to mirror
// pipeline-recorded counters into the server-wide collector.
func (c *Collector) CounterValue(ct Counter) int64 {
	if c == nil || ct >= NumCounters {
		return 0
	}
	return c.ctrs[ct].Load()
}

// GaugeAdd moves a gauge by delta (use +1/-1 around enqueue/dequeue) and
// updates its high-watermark.
func (c *Collector) GaugeAdd(g Gauge, delta int64) {
	if c == nil || g >= NumGauges {
		return
	}
	v := c.gauges[g].cur.Add(delta)
	c.watermark(g, v)
}

// GaugeSet sets a gauge to an absolute value (use for sampled depths like
// the reference-window size) and updates its high-watermark.
func (c *Collector) GaugeSet(g Gauge, v int64) {
	if c == nil || g >= NumGauges {
		return
	}
	c.gauges[g].cur.Store(v)
	c.watermark(g, v)
}

func (c *Collector) watermark(g Gauge, v int64) {
	for {
		m := c.gauges[g].max.Load()
		if v <= m || c.gauges[g].max.CompareAndSwap(m, v) {
			return
		}
	}
}
