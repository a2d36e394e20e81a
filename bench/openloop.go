package main

import (
	"sort"
	"time"
)

// clock is the time source of the open-loop dispatcher; tests inject a
// fake so schedules are checked without sleeping.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// arrival is one chunk a camera emits: due is its offset from the start of
// the step, fixed by the schedule and not by how the system is doing.
type arrival struct {
	cam, seq int
	due      time.Duration
}

// schedule lists every chunk due within the window for cams cameras that
// each emit one chunk per period, phases staggered evenly across the
// period so arrivals do not bunch. Sorted by due time.
func schedule(cams int, period, window time.Duration) []arrival {
	var out []arrival
	for c := 0; c < cams; c++ {
		phase := period * time.Duration(c) / time.Duration(cams)
		for s := 0; phase+time.Duration(s)*period < window; s++ {
			out = append(out, arrival{cam: c, seq: s, due: phase + time.Duration(s)*period})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// dispatch submits every arrival at its due time, never earlier, and hands
// submit how late the generator ran (now − due). A slow submit delays the
// arrivals behind it; that delay shows up as their lateness and, through
// openLatency, in their frames' latency — an open loop does not let a
// stall hide the load it postponed.
func dispatch(clk clock, start time.Time, arrivals []arrival, submit func(a arrival, late time.Duration)) {
	for _, a := range arrivals {
		if wait := a.due - clk.Now().Sub(start); wait > 0 {
			clk.Sleep(wait)
		}
		submit(a, clk.Now().Sub(start)-a.due)
	}
}

// openLatency times a frame from its chunk's due time: generator lateness
// plus the server's own arrival-to-completion latency.
func openLatency(late, served time.Duration) time.Duration { return late + served }
