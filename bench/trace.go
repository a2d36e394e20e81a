package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public functions. Parent is a span ID, 0 for a
// root; spans of one chunk share Chunk.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Chunk  int    `json:"chunk"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one pointer check per site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// open lists, per serving session, the IDs of its submitted and not yet
	// completed chunk spans, oldest first. A session serves chunks strictly
	// in order, so the head is the chunk its engine is working on.
	open map[string][]int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: make(map[string][]int)} }

// begin opens a span now and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, chunk int) int {
	if t == nil {
		return 0
	}
	return t.beginAt(name, parent, chunk, time.Now())
}

// beginAt opens a span that started at a time already taken.
func (t *tracer) beginAt(name string, parent, chunk int, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Chunk: chunk, Start: int64(at.Sub(t.epoch))})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.endAt(id, time.Now())
}

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(at.Sub(t.epoch))
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent, chunk int, start, end time.Time) {
	t.endAt(t.beginAt(name, parent, chunk, start), end)
}

// beginChunk opens the request span of one chunk (Submit→Wait on a serving
// session) and files it under the session.
func (t *tracer) beginChunk(name, sess string, chunk int) int {
	id := t.begin(name, 0, chunk)
	if id != 0 {
		t.mu.Lock()
		t.open[sess] = append(t.open[sess], id)
		t.mu.Unlock()
	}
	return id
}

// endChunk closes a chunk span and retires it from its session.
func (t *tracer) endChunk(sess string, id int) {
	if t == nil || id == 0 {
		return
	}
	t.end(id)
	t.mu.Lock()
	q := t.open[sess]
	for i, v := range q {
		if v == id {
			t.open[sess] = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// serving returns the span and chunk id of the chunk a session is serving
// (zeros when it has none open).
func (t *tracer) serving(sess string) (id, chunk int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if q := t.open[sess]; len(q) > 0 {
		return q[0], t.spans[q[0]-1].Chunk
	}
	return 0, 0
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Calls int           `json:"calls"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// selfTimes sums, per span name, the total duration and the self time: a
// span's duration minus the part of its interval its child spans cover
// (children are clipped to the parent and overlapping children count once).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		lt := out[s.Name]
		lt.Calls++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = lt
	}
	return out
}

// writeTrace writes the spans of every traced workload as one JSON object
// keyed by workload name.
func writeTrace(path string, byWorkload map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
