package qos

import (
	"sync"
	"testing"
)

// TestSelectDeterministic pins the determinism contract: Select is a pure
// function of (Load, Class) — repeated calls and interleaved Observe calls
// never change the answer for the same input.
func TestSelectDeterministic(t *testing.T) {
	c := NewController(Config{})
	loads := []Load{
		{QueueDepth: 0, Workers: 4},
		{QueueDepth: 3, Workers: 4},
		{QueueDepth: 20, Workers: 4},
		{QueueDepth: 100, Workers: 4},
		{QueueDepth: 7, Workers: 1},
	}
	for _, l := range loads {
		for _, cl := range []Class{ClassPremium, ClassFree} {
			first := c.Select(l, cl)
			for i := 0; i < 3; i++ {
				// Observe perturbs the closed-loop state between calls; the
				// per-frame selection must not read it.
				c.Observe(Load{QueueDepth: i * 50, Workers: 1})
				if got := c.Select(l, cl); got != first {
					t.Fatalf("Select(%+v, %v) not deterministic: %v then %v", l, cl, first, got)
				}
			}
		}
	}
}

// TestSelectMonotoneInPressure asserts the ladder degrades monotonically:
// rising pressure never selects a more expensive rung.
func TestSelectMonotoneInPressure(t *testing.T) {
	c := NewController(Config{})
	for _, cl := range []Class{ClassPremium, ClassFree} {
		prev := StepFull
		for q := 0; q <= 80; q++ {
			got := c.Select(Load{QueueDepth: q, Workers: 4}, cl)
			if got < prev {
				t.Fatalf("class %v: queue %d selected %v after %v — cheaper pressure picked costlier rung later", cl, q, got, prev)
			}
			prev = got
		}
		if prev != StepSkip {
			t.Fatalf("class %v: heaviest load selected %v, want skip", cl, prev)
		}
	}
}

// TestFreeClassDegradesFirst asserts the class bias: at any fixed load a
// free session's rung is never more expensive than a premium session's.
func TestFreeClassDegradesFirst(t *testing.T) {
	c := NewController(Config{})
	sawGap := false
	for q := 0; q <= 80; q++ {
		l := Load{QueueDepth: q, Workers: 4}
		p, f := c.Select(l, ClassPremium), c.Select(l, ClassFree)
		if f < p {
			t.Fatalf("queue %d: free got %v, premium %v — free served better than premium", q, f, p)
		}
		if f > p {
			sawGap = true
		}
	}
	if !sawGap {
		t.Fatal("free class never degraded earlier than premium across the sweep")
	}
}

// TestForcedRungs pins the negative-threshold escape hatches the quality
// tests use to hold the ladder on one rung.
func TestForcedRungs(t *testing.T) {
	l := Load{QueueDepth: 2, Workers: 4}
	cases := []struct {
		cfg  Config
		want Step
	}{
		{Config{FullBelow: 1e9, ReconAt: 1e18, SkipAt: 1e18}, StepFull},
		{Config{FullBelow: -1, ReconAt: 1e18, SkipAt: 1e18}, StepRefine},
		{Config{FullBelow: -1, ReconAt: -1, SkipAt: 1e18}, StepRecon},
		{Config{SkipAt: -1}, StepSkip},
	}
	for _, tc := range cases {
		if got := NewController(tc.cfg).Select(l, ClassPremium); got != tc.want {
			t.Errorf("cfg %+v selected %v, want %v", tc.cfg, got, tc.want)
		}
	}
}

// TestClosedLoopKnobs walks the EWMA up and down and checks the slow knob
// moves the documented direction: promotion spacing stretches with load,
// disappears, and comes back as load falls.
func TestClosedLoopKnobs(t *testing.T) {
	c := NewController(Config{})
	if iv := c.ResegInterval(); iv != 1 {
		t.Fatalf("idle promotion interval %d, want 1", iv)
	}
	prevIv := 1
	for q := 0; q <= 64; q += 2 {
		for i := 0; i < 50; i++ { // converge the EWMA to this level
			c.Observe(Load{QueueDepth: q, Workers: 4})
		}
		iv := c.ResegInterval()
		if iv != 0 && prevIv != 0 && iv < prevIv {
			t.Fatalf("queue %d: promotion interval tightened %d -> %d under rising load", q, prevIv, iv)
		}
		if prevIv == 0 && iv != 0 {
			t.Fatalf("queue %d: promotion re-enabled (%d) under rising load", q, iv)
		}
		prevIv = iv
	}
	if prevIv != 0 {
		t.Fatalf("saturated promotion interval %d, want 0 (disabled)", prevIv)
	}
	// Load falls away: the knob must relax back.
	for i := 0; i < 200; i++ {
		c.Observe(Load{QueueDepth: 0, Workers: 4})
	}
	if iv := c.ResegInterval(); iv != 1 {
		t.Fatalf("promotion interval %d after load fell, want 1", iv)
	}
}

// TestObserveConcurrent exercises the CAS loop under contention (run with
// -race); the EWMA must land between the two observed levels.
func TestObserveConcurrent(t *testing.T) {
	c := NewController(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Observe(Load{QueueDepth: 4 * (g % 2), Workers: 1})
			}
		}(g)
	}
	wg.Wait()
	if p := c.Pressure(); p < 0 || p > 4 {
		t.Fatalf("EWMA %v outside the observed [0,4] range", p)
	}
}

func TestParseClass(t *testing.T) {
	for s, want := range map[string]Class{"": ClassPremium, "premium": ClassPremium, "free": ClassFree} {
		got, err := ParseClass(s)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseClass("gold"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
}
