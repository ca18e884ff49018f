package feed

import (
	"sync"

	"repro/internal/ais"
)

// Ring is what a Server replays: a bounded, appendable, finishable
// buffer of fixes. Fixes are indexed by a monotone sequence; the ring
// holds [start, start+len) and trims its oldest entries when full. A
// static replay is a ring built full and already finished (NewReplay);
// the cluster router appends to one ring per vessel slice as the
// upstream stream arrives and finishes them at its end.
type Ring struct {
	mu     sync.Mutex
	buf    []ais.Fix
	start  int // sequence number of buf[0]
	bound  int
	done   bool
	notify chan struct{}
	st     RingStats
}

// RingStats counts what entered a ring and what fell off its horizon.
type RingStats struct {
	Appended int // fixes appended
	Trimmed  int // fixes dropped off the bound
}

// NewRing returns an empty live ring retaining at most bound fixes. A
// client resuming with a cursor older than the horizon misses the
// trimmed prefix; the loss is counted in RingStats.Trimmed, never
// silent.
func NewRing(bound int) *Ring {
	return &Ring{bound: max(bound, 1), notify: make(chan struct{})}
}

// NewReplay returns a finished ring holding fixes, which must be in
// non-decreasing time order. The ring takes ownership of the slice.
func NewReplay(fixes []ais.Fix) *Ring {
	return &Ring{
		buf: fixes, bound: max(len(fixes), 1), done: true,
		notify: make(chan struct{}),
		st:     RingStats{Appended: len(fixes)},
	}
}

// Append adds one fix and wakes every client waiting for traffic.
// Fixes must be appended in non-decreasing time order, from one
// goroutine.
func (r *Ring) Append(f ais.Fix) {
	r.mu.Lock()
	r.buf = append(r.buf, f)
	r.st.Appended++
	if n := len(r.buf) - r.bound; n > 0 {
		r.buf = r.buf[n:]
		r.start += n
		r.st.Trimmed += n
	}
	r.wake()
	r.mu.Unlock()
}

// Finish marks the stream complete: clients drain what the ring holds
// and close cleanly, so they observe an ordinary end of feed.
func (r *Ring) Finish() {
	r.mu.Lock()
	r.done = true
	r.wake()
	r.mu.Unlock()
}

// wake signals the current waiters and arms a fresh channel; r.mu held.
func (r *Ring) wake() {
	close(r.notify)
	r.notify = make(chan struct{})
}

// Stats snapshots the ring's accounting.
func (r *Ring) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// resumePos returns the sequence number of the first retained fix
// strictly newer than the cursor, and how many retained fixes the
// cursor skips. A nil cursor is a full replay.
func (r *Ring) resumePos(cursor *int64) (pos, skipped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := 0
	for cursor != nil && i < len(r.buf) && r.buf[i].Time.Unix() <= *cursor {
		i++
	}
	return r.start + i, i
}

// window returns the retained fixes from sequence pos on (without
// copying: appends only write past the returned slice and trims only
// reslice the front), the sequence number of the first of them, whether
// the stream is complete past them, and a channel that signals the next
// append or the finish.
func (r *Ring) window(pos int) (fixes []ais.Fix, first int, done bool, notify <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A position that fell off the horizon resumes at the oldest
	// retained fix; the trimmed prefix is already counted.
	i := min(max(pos-r.start, 0), len(r.buf))
	return r.buf[i:len(r.buf):len(r.buf)], r.start + i, r.done, r.notify
}
