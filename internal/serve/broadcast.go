package serve

import (
	"context"
	"sort"
	"sync"

	"vrdann/internal/obs"
)

// Broadcast is the single-decode fan-out mode for hot content: one backing
// session decodes and segments each submitted chunk exactly once, and the
// per-frame results are fanned to every attached viewer. Where the content
// cache deduplicates NN work across sessions that each still decode, a
// broadcast removes even the per-viewer decode — the right tool when the
// operator knows up front that N viewers watch the same live stream in
// lockstep (the cache covers the general case of overlapping popularity).
//
// Viewers receive every result of a chunk, in display order, via the
// callback they attached with. Callbacks run on the Submit caller's
// goroutine, viewer by viewer in attach order; a slow callback delays later
// viewers of that frame, never the backing session's compute.
type Broadcast struct {
	srv *Server
	s   *Session

	mu      sync.Mutex
	viewers map[int]func(FrameResult)
	nextID  int
}

// Viewer is one attached consumer of a broadcast.
type Viewer struct {
	b  *Broadcast
	id int
}

// OpenBroadcast admits a broadcast backed by one ordinary session; the
// session draws on the same worker pool and content cache as every
// other, so a broadcast's anchors still seed the cache for non-broadcast
// sessions serving the same bytes.
func (srv *Server) OpenBroadcast() (*Broadcast, error) {
	s, err := srv.Open()
	if err != nil {
		return nil, err
	}
	return &Broadcast{srv: srv, s: s, viewers: make(map[int]func(FrameResult))}, nil
}

// Session exposes the backing session (metrics, ID).
func (b *Broadcast) Session() *Session { return b.s }

// Attach registers a viewer. The callback receives every frame of every
// chunk submitted after the attach.
func (b *Broadcast) Attach(onResult func(FrameResult)) *Viewer {
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	b.viewers[id] = onResult
	n := len(b.viewers)
	b.mu.Unlock()
	b.srv.cfg.Obs.GaugeSet(obs.GaugeBroadcastViewers, int64(n))
	return &Viewer{b: b, id: id}
}

// Detach removes the viewer; it stops receiving results at the next chunk
// boundary (a concurrent Submit may still deliver the chunk in flight).
func (v *Viewer) Detach() {
	b := v.b
	b.mu.Lock()
	delete(b.viewers, v.id)
	n := len(b.viewers)
	b.mu.Unlock()
	b.srv.cfg.Obs.GaugeSet(obs.GaugeBroadcastViewers, int64(n))
}

// Viewers reports the attached viewer count.
func (b *Broadcast) Viewers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.viewers)
}

// Submit serves one chunk through the backing session — decoded and
// segmented once — then fans the display-ordered results to every attached
// viewer and returns them. The fanout counter records viewer-frames
// delivered beyond the single compute (frames × viewers).
func (b *Broadcast) Submit(ctx context.Context, data []byte) ([]FrameResult, error) {
	c, err := b.s.Submit(ctx, data)
	if err != nil {
		return nil, err
	}
	res, err := c.Wait(ctx)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	ids := make([]int, 0, len(b.viewers))
	for id := range b.viewers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	cbs := make([]func(FrameResult), len(ids))
	for i, id := range ids {
		cbs[i] = b.viewers[id]
	}
	b.mu.Unlock()
	for _, cb := range cbs {
		for _, r := range res {
			cb(r)
		}
	}
	b.srv.cfg.Obs.Count(obs.CounterBroadcastFrames, int64(len(res))*int64(len(cbs)))
	return res, nil
}

// Close drains the backing session; viewers receive nothing further.
func (b *Broadcast) Close() {
	b.s.Close()
}
