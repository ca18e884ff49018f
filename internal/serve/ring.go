package serve

import (
	"sort"
	"sync"
)

// Ring is the fixed-capacity alert-history buffer: it retains the most
// recent published envelopes for the JSON history endpoint and for SSE
// reconnect replay (Last-Event-ID). It has its own lock so snapshot
// queries never contend with the hub's publish path for long.
type Ring struct {
	mu    sync.Mutex
	buf   []Envelope
	start int // index of the oldest entry
	n     int // live entries
}

// NewRing returns a ring retaining up to capacity envelopes.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Ring{buf: make([]Envelope, capacity)}
}

// Len returns the number of retained envelopes.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Push appends an envelope, evicting the oldest when full.
func (r *Ring) Push(e Envelope) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// Last returns up to n most recent envelopes, oldest first.
func (r *Ring) Last(n int) []Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]Envelope, 0, n)
	for i := r.n - n; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// FirstSeq returns the sequence number of the oldest retained envelope
// (0 when the ring is empty) — the replay floor: a Since(seq) with
// seq < FirstSeq()-1 has lost the evicted prefix.
func (r *Ring) FirstSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	return r.buf[r.start].Seq
}

// Since returns the retained envelopes with sequence strictly greater
// than seq, oldest first. A reconnecting client that was away longer
// than the ring's retention silently loses the evicted prefix — the
// same explicit degradation policy as everywhere else in the pipeline.
//
// Sequence numbers increase monotonically in ring order, so the resume
// point is found by binary search: every SSE reconnect costs O(log n)
// under the ring lock instead of a full scan, which matters when
// thousands of clients re-attach after a gateway blip.
func (r *Ring) Since(seq uint64) []Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	i := sort.Search(r.n, func(i int) bool {
		return r.buf[(r.start+i)%len(r.buf)].Seq > seq
	})
	if i == r.n {
		return nil
	}
	out := make([]Envelope, 0, r.n-i)
	for ; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}
