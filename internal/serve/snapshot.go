package serve

import "slices"

// Checkpoint support. The hub serializes its sequence counter and the
// retained history ring so that a restored gateway resumes the envelope
// sequence exactly where the crashed one stopped: deterministic replay
// after restore re-publishes the in-flight slides' alerts under the
// same sequence numbers, and SSE clients reconnecting with their
// Last-Event-ID deduplicate them — zero duplicate alerts end to end.

// HubSnapshot is the serialized replay state of a Hub.
type HubSnapshot struct {
	// Seq is the last assigned envelope sequence number.
	Seq uint64
	// Published is the cumulative publish counter (stats continuity).
	Published uint64
	// Ring holds the retained history, oldest first.
	Ring []Envelope
	// LogSeq is the durable alert log's last appended sequence at
	// snapshot time (0 when no log is attached; decodes zero from
	// checkpoints written before the log existed). On restore it tells
	// the wiring how far the log already reaches: replayed slides with
	// Seq <= LogSeq deduplicate inside the log's idempotent append.
	LogSeq uint64
}

// Snapshot captures the hub's replay state. Subscribers are not
// serialized — connections do not survive a process, clients re-attach
// with Last-Event-ID.
func (h *Hub) Snapshot() HubSnapshot {
	h.mu.Lock()
	snap := HubSnapshot{Seq: h.seq, Published: h.published}
	if h.log != nil {
		snap.LogSeq = h.log.LastSeq()
	}
	h.mu.Unlock()
	snap.Ring = h.ring.Last(0)
	return snap
}

// Restore sets the hub's sequence counter back to a snapshot's, so the
// slides replayed after it re-publish under the same numbers. At
// process start it also fills the history; on a rewind, which restores
// a hub that has published past the snapshot, what the hub has
// published stays published: the ring keeps its newer envelopes, and
// replayed envelopes are not fanned out again (see Publish).
func (h *Hub) Restore(snap HubSnapshot) {
	h.mu.Lock()
	h.high = max(h.high, h.seq)
	h.seq = snap.Seq
	h.published = max(h.published, snap.Published)
	high := h.high
	h.mu.Unlock()
	for _, e := range snap.Ring {
		if e.Seq > high {
			h.ring.Push(e)
		}
	}
}

// Close shuts the hub down for graceful termination: every live
// subscriber is closed, so blocked Next/NextTimeout calls return ok
// false and SSE pump loops end their responses cleanly (EOF, not a
// connection reset). New subscriptions after Close are permitted but
// will only ever see alerts published after them; a shutting-down
// gateway stops accepting connections separately.
func (h *Hub) Close() {
	h.mu.Lock()
	subs := slices.Clone(h.subs)
	h.mu.Unlock()
	// Subscriber.Close re-enters the hub via remove, so it must run
	// outside h.mu.
	for _, s := range subs {
		s.Close()
	}
}

// Quiesce runs fn while the pipeline is paused under the gateway's
// write lock: no slide is being processed and no snapshot query is
// reading, so fn observes (or captures) a consistent pipeline state.
// The checkpoint loop uses it to snapshot between slides, on a slide
// nothing was tracked past; anywhere else a slide tracked ahead may be
// in flight, which tracker reads finish first and core.System.Snapshot
// refuses (ErrSlideInFlight).
func (g *Gateway) Quiesce(fn func()) {
	g.pipeMu.Lock()
	defer g.pipeMu.Unlock()
	fn()
}
