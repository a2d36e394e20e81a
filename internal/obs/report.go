package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// StageReport is the snapshot of one stage's latency distribution.
type StageReport struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"totalNs"`
	MinNS   int64  `json:"minNs"`
	MaxNS   int64  `json:"maxNs"`
	MeanNS  int64  `json:"meanNs"`
	P50NS   int64  `json:"p50Ns"`
	P95NS   int64  `json:"p95Ns"`
	P99NS   int64  `json:"p99Ns"`
	// Occupancy is stage busy time over collector wall time. Stages running
	// on several workers at once can exceed 1; nested stages (the NN-S conv
	// breakdown inside "nn-s") overlap their parent by construction.
	Occupancy float64 `json:"occupancy"`
}

// GaugeReport is the snapshot of one gauge.
type GaugeReport struct {
	Name    string `json:"name"`
	Current int64  `json:"current"`
	Max     int64  `json:"max"`
}

// Report is a point-in-time snapshot of a collector, shaped for JSON
// output (the benchsuite "stages" block) and for the text table.
type Report struct {
	ElapsedNS int64            `json:"elapsedNs"`
	Stages    []StageReport    `json:"stages"`
	Gauges    []GaugeReport    `json:"gauges"`
	Counters  map[string]int64 `json:"counters"`
}

// Snapshot captures the collector's current state. Stages with no recorded
// spans are omitted. Safe to call concurrently with recording; the snapshot
// is internally consistent per field, not across fields. Returns nil on a
// nil collector.
func (c *Collector) Snapshot() *Report {
	if c == nil {
		return nil
	}
	r := &Report{
		ElapsedNS: int64(time.Since(c.epoch)),
		Counters:  make(map[string]int64, NumCounters),
	}
	for s := Stage(0); s < NumStages; s++ {
		agg := &c.stages[s]
		n := agg.count.Load()
		if n == 0 {
			continue
		}
		var buckets [bucketCount]int64
		for i := range buckets {
			buckets[i] = agg.buckets[i].Load()
		}
		sr := StageReport{
			Name:    s.String(),
			Count:   n,
			TotalNS: agg.sumNS.Load(),
			MinNS:   agg.minNS.Load(),
			MaxNS:   agg.maxNS.Load(),
		}
		// The log2-bucket quantile returns a bucket's geometric midpoint,
		// which can land outside the actually observed range (above MaxNS
		// when the max sits low in its bucket, below MinNS symmetrically).
		// Clamp to the recorded extremes so p50 <= p95 <= p99 <= max and
		// min <= p50 always hold in reports.
		for _, q := range []struct {
			dst *int64
			q   float64
		}{{&sr.P50NS, 0.50}, {&sr.P95NS, 0.95}, {&sr.P99NS, 0.99}} {
			*q.dst = clamp(quantile(buckets, n, q.q), sr.MinNS, sr.MaxNS)
		}
		sr.MeanNS = sr.TotalNS / n
		if r.ElapsedNS > 0 {
			sr.Occupancy = float64(sr.TotalNS) / float64(r.ElapsedNS)
		}
		r.Stages = append(r.Stages, sr)
	}
	for g := Gauge(0); g < NumGauges; g++ {
		if c.gauges[g].max.Load() == 0 && c.gauges[g].cur.Load() == 0 {
			continue
		}
		r.Gauges = append(r.Gauges, GaugeReport{
			Name:    g.String(),
			Current: c.gauges[g].cur.Load(),
			Max:     c.gauges[g].max.Load(),
		})
	}
	for ct := Counter(0); ct < NumCounters; ct++ {
		if v := c.ctrs[ct].Load(); v != 0 {
			r.Counters[ct.String()] = v
		}
	}
	return r
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// quantile estimates the q-quantile from log2 buckets: it walks the
// cumulative distribution to the bucket containing the q-th sample and
// returns that bucket's geometric midpoint. Resolution is a factor of two,
// which is plenty to tell a 40 µs refine from a 2 ms NN-L run.
func quantile(buckets [bucketCount]int64, total int64, q float64) int64 {
	if total <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, b := range buckets {
		cum += b
		if cum >= rank {
			if i == 0 {
				return 0
			}
			lo := int64(1) << (i - 1)
			return lo + lo/2 // midpoint of [2^(i-1), 2^i)
		}
	}
	return 0
}

// Stage returns the named stage's report, or nil.
func (r *Report) Stage(name string) *StageReport {
	if r == nil {
		return nil
	}
	for i := range r.Stages {
		if r.Stages[i].Name == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// Table renders the report as an aligned text table: stages sorted by total
// busy time, then gauges and counters.
func (r *Report) Table() string {
	if r == nil {
		return "observability disabled\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "per-stage latency over %s:\n", fmtDur(r.ElapsedNS))
	fmt.Fprintf(&b, "  %-14s %7s %10s %9s %9s %9s %9s %6s\n",
		"stage", "count", "total", "mean", "p50", "p95", "p99", "occ%")
	stages := append([]StageReport(nil), r.Stages...)
	sort.Slice(stages, func(i, j int) bool { return stages[i].TotalNS > stages[j].TotalNS })
	for _, s := range stages {
		fmt.Fprintf(&b, "  %-14s %7d %10s %9s %9s %9s %9s %6.1f\n",
			s.Name, s.Count, fmtDur(s.TotalNS), fmtDur(s.MeanNS),
			fmtDur(s.P50NS), fmtDur(s.P95NS), fmtDur(s.P99NS), 100*s.Occupancy)
	}
	if len(r.Gauges) > 0 {
		fmt.Fprintf(&b, "queues / occupancy gauges (current, high-watermark):\n")
		for _, g := range r.Gauges {
			fmt.Fprintf(&b, "  %-14s %7d %7d\n", g.Name, g.Current, g.Max)
		}
	}
	if len(r.Counters) > 0 {
		names := make([]string, 0, len(r.Counters))
		for n := range r.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "counters:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-14s %7d\n", n, r.Counters[n])
		}
	}
	return b.String()
}

// fmtDur renders nanoseconds with a human unit.
func fmtDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
