package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice, or NaN when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailCandidates are the percentiles a latency report may quote, ascending.
// In per mille, so that "ten samples beyond" is exact integer arithmetic.
var tailCandidates = []int{500, 900, 950, 990, 999}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of the n samples beyond it (choosing-metrics §1); a tail quoted
// from fewer is one or two outliers, not a distribution. It returns 0 when
// even the median is not supported (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, pm := range tailCandidates {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 10
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(v, n=4) gives them (exclusive method) — the spread
// the driver holds every bound against. Fewer than two values have none.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Position k(n+1)/4, 1-based; Python clamps the index, not the
		// weight, so tiny samples extrapolate. Mirrored exactly.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// windowSegments is how many equal parts a timed window is cut into. Each
// gated timing is computed per part and the median part is reported, so a
// burst of interference from a neighbour on a shared machine costs at most
// one part and not the run. Three parts of a fifteen-second window still
// leave the p95 of the slowest workload its ten samples beyond.
const windowSegments = 3

// part is one segment of a timed window.
type part struct{ fps, p50, p95 float64 }

// windowParts cuts the window [0, d) into windowSegments parts by each
// latency sample's completion time and returns each part's throughput,
// median latency and p95 latency. Throughput is the rate between the
// part's first and last completion, (n−1)·perSample frames over that
// interval, so it carries the clock's digits and not a count over a fixed
// span. Samples that completed after the window closed belong to no part.
func windowParts(doneS, latMS []float64, perSample int, d time.Duration) []part {
	if perSample == 0 {
		perSample = 1
	}
	span := d.Seconds() / windowSegments
	lat := make([][]float64, windowSegments)
	first := make([]float64, windowSegments)
	last := make([]float64, windowSegments)
	for i, at := range doneS {
		k := int(at / span)
		if k < 0 || k >= windowSegments {
			continue
		}
		if len(lat[k]) == 0 || at < first[k] {
			first[k] = at
		}
		last[k] = max(last[k], at)
		lat[k] = append(lat[k], latMS[i])
	}
	parts := make([]part, windowSegments)
	for k, l := range lat {
		sort.Float64s(l)
		parts[k] = part{math.NaN(), percentile(l, 50), percentile(l, 95)}
		if last[k] > first[k] {
			parts[k].fps = float64((len(l)-1)*perSample) / (last[k] - first[k])
		}
	}
	return parts
}

// medianPart reports, metric by metric, the median over the parts.
func medianPart(parts []part) part {
	var f, a, b []float64
	for _, p := range parts {
		f, a, b = append(f, p.fps), append(a, p.p50), append(b, p.p95)
	}
	return part{median(f), median(a), median(b)}
}
