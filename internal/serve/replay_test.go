package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/maritime"
)

// drain pulls everything currently queued on the subscriber.
func drainSub(t *testing.T, s *Subscriber) []Envelope {
	t.Helper()
	var out []Envelope
	for {
		env, ok, timedOut := s.NextTimeout(20 * time.Millisecond)
		if timedOut || !ok {
			return out
		}
		out = append(out, env)
	}
}

func publishSeqs(h *Hub, n int) {
	slide := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		h.Publish(slide, []maritime.Alert{{CE: "speeding", AreaID: "a1", Vessel: 237000001, Time: slide}})
	}
}

// TestSubscribeFromExactTrimBoundary is the regression for the silent
// replay gap: a cursor exactly at the trim boundary (afterSeq ==
// FirstSeq-1) loses nothing and must NOT see a marker; one sequence
// older and the gap must be announced, never skipped.
func TestSubscribeFromExactTrimBoundary(t *testing.T) {
	h := NewHub(4)
	publishSeqs(h, 10) // ring retains 7..10

	// Exactly at the boundary: everything after the cursor is retained.
	s := h.SubscribeFrom(Filter{}, 16, 6)
	got := drainSub(t, s)
	requireSeqs(t, got, 7, 8, 9, 10)
	for _, e := range got {
		if e.Marker != "" {
			t.Fatalf("marker %q at the exact trim boundary; nothing was lost", e.Marker)
		}
	}
	s.Close()

	// One older: sequence 6 is gone and the subscriber must hear it.
	s = h.SubscribeFrom(Filter{}, 16, 5)
	got = drainSub(t, s)
	if len(got) != 5 {
		t.Fatalf("got %d envelopes, want marker + 7..10: %+v", len(got), got)
	}
	m := got[0]
	if m.Marker != MarkerReplayTruncated || m.Seq != 6 || m.Missing != 1 {
		t.Fatalf("marker = %+v, want {Seq:6 Marker:%q Missing:1}", m, MarkerReplayTruncated)
	}
	requireSeqs(t, got[1:], 7, 8, 9, 10)
	s.Close()

	// Far older: the whole evicted prefix is announced in one marker.
	s = h.SubscribeFrom(Filter{}, 16, 0)
	got = drainSub(t, s)
	m = got[0]
	if m.Marker != MarkerReplayTruncated || m.Seq != 6 || m.Missing != 6 {
		t.Fatalf("marker = %+v, want {Seq:6 Missing:6}", m)
	}
	requireSeqs(t, got[1:], 7, 8, 9, 10)
	s.Close()

	// At or past the head: caught up, nothing to say.
	s = h.SubscribeFrom(Filter{}, 16, 10)
	if got = drainSub(t, s); len(got) != 0 {
		t.Fatalf("caught-up resume received %+v", got)
	}
	s.Close()
}

// TestSubscribeFromEmptyRingAnnouncesLoss covers the restored-hub case:
// a sequence counter ahead of an empty ring (snapshot restore without
// history) — the missing range is announced, not skipped.
func TestSubscribeFromEmptyRingAnnouncesLoss(t *testing.T) {
	h := NewHub(8)
	h.Restore(HubSnapshot{Seq: 10, Published: 10})
	s := h.SubscribeFrom(Filter{}, 16, 4)
	got := drainSub(t, s)
	if len(got) != 1 {
		t.Fatalf("got %+v, want exactly one marker", got)
	}
	if got[0].Marker != MarkerReplayTruncated || got[0].Seq != 10 || got[0].Missing != 6 {
		t.Fatalf("marker = %+v, want {Seq:10 Missing:6}", got[0])
	}
	s.Close()
}

// TestMarkerBypassesFilter: a truncation announcement concerns every
// resuming subscriber, including those whose filter matches none of the
// lost alerts.
func TestMarkerBypassesFilter(t *testing.T) {
	h := NewHub(4)
	publishSeqs(h, 10)
	f := Filter{MMSI: map[uint32]struct{}{999999999: {}}} // matches nothing published
	s := h.SubscribeFrom(f, 16, 0)
	got := drainSub(t, s)
	if len(got) != 1 || got[0].Marker != MarkerReplayTruncated {
		t.Fatalf("got %+v, want only the truncation marker", got)
	}
	s.Close()
}

// memLog is an in-memory EnvelopeLog for replay tests.
type memLog struct {
	envs []Envelope
	errs bool
}

func (m *memLog) Append(envs []Envelope) error {
	if m.errs {
		return errors.New("memLog: append disabled")
	}
	for _, e := range envs {
		if n := len(m.envs); n > 0 && e.Seq <= m.envs[n-1].Seq {
			continue
		}
		m.envs = append(m.envs, e)
	}
	return nil
}

func (m *memLog) LastSeq() uint64 {
	if len(m.envs) == 0 {
		return 0
	}
	return m.envs[len(m.envs)-1].Seq
}

func (m *memLog) ReadSince(afterSeq uint64, max int) ([]Envelope, error) {
	var out []Envelope
	for _, e := range m.envs {
		if e.Seq > afterSeq && len(out) < max {
			out = append(out, e)
		}
	}
	return out, nil
}

// TestSubscribeFromLogFallback: with a log attached, a cursor older
// than the ring replays from the log — full history, no marker.
func TestSubscribeFromLogFallback(t *testing.T) {
	h := NewHub(4)
	h.AttachLog(&memLog{})
	publishSeqs(h, 10) // ring retains 7..10; log has 1..10
	s := h.SubscribeFrom(Filter{}, 64, 0)
	got := drainSub(t, s)
	requireSeqs(t, got, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, e := range got {
		if e.Marker != "" {
			t.Fatalf("marker %q with the full range in the log", e.Marker)
		}
	}
	s.Close()
}

// TestSubscribeFromLogFallbackFloorsAtQueue: replaying more than the
// subscriber queue can hold is wasted work (the oldest records would
// drop right back out); the replay floors at the queue bound and the
// skipped prefix is announced as truncated.
func TestSubscribeFromLogFallbackFloorsAtQueue(t *testing.T) {
	h := NewHub(4)
	h.AttachLog(&memLog{})
	publishSeqs(h, 20)
	s := h.SubscribeFrom(Filter{}, 5, 0) // queue of 5 against 20 logged records
	got := drainSub(t, s)
	if len(got) == 0 || got[0].Marker != MarkerReplayTruncated {
		t.Fatalf("got %+v, want a leading truncation marker", got)
	}
	if got[0].Seq != 16 || got[0].Missing != 16 {
		t.Fatalf("marker = %+v, want {Seq:16 Missing:16}", got[0])
	}
	requireSeqs(t, got[1:], 17, 18, 19, 20)
	s.Close()
}

// TestPublishSurvivesLogAppendFailure: a failing log append is counted
// but never blocks delivery to this hub's own subscribers.
func TestPublishSurvivesLogAppendFailure(t *testing.T) {
	h := NewHub(16)
	h.AttachLog(&memLog{errs: true})
	s := h.Subscribe(Filter{}, 16)
	publishSeqs(h, 3)
	requireSeqs(t, drainSub(t, s), 1, 2, 3)
	if h.LogAppendErrors() != 3 {
		t.Fatalf("LogAppendErrors = %d, want 3", h.LogAppendErrors())
	}
	if st := h.Totals(); st.LogAppendErrors != 3 {
		t.Fatalf("Totals().LogAppendErrors = %d, want 3", st.LogAppendErrors)
	}
	s.Close()
}

// TestPublishEnvelopesPreservesSeqs: the replica path re-publishes
// pre-stamped envelopes verbatim and advances the hub head.
func TestPublishEnvelopesPreservesSeqs(t *testing.T) {
	h := NewHub(16)
	s := h.Subscribe(Filter{}, 16)
	slide := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	envs := []Envelope{
		{Seq: 41, Slide: slide, Alert: maritime.Alert{CE: "speeding", Vessel: 1}},
		{Seq: 42, Slide: slide, Alert: maritime.Alert{CE: "speeding", Vessel: 2}},
	}
	h.PublishEnvelopes(envs)
	requireSeqs(t, drainSub(t, s), 41, 42)
	// A duplicate re-publish (tailer rewind) deduplicates per subscriber.
	h.PublishEnvelopes(envs)
	if got := drainSub(t, s); len(got) != 0 {
		t.Fatalf("duplicate re-publish delivered %+v", got)
	}
	// The head advanced: a fresh publish continues after 42.
	publishSeqs(h, 1)
	requireSeqs(t, drainSub(t, s), 43)
	s.Close()
}

// hookLog is a memLog whose ReadSince runs a callback after computing
// its result — the deterministic stand-in for "the tailer published a
// burst between the subscribe's log read and its registry lock".
type hookLog struct {
	memLog
	onRead func(result []Envelope)
}

func (l *hookLog) ReadSince(afterSeq uint64, max int) ([]Envelope, error) {
	out, err := l.memLog.ReadSince(afterSeq, max)
	if l.onRead != nil {
		l.onRead(out)
	}
	return out, err
}

// TestSubscribeFromClosesReplayRingGap is the regression for the
// replay→ring hand-off: a burst larger than the ring published after
// the log replay was read but before the registry lock used to leave
// the ring starting past the replay's last record, and the range in
// between was neither delivered nor announced. The subscribe must go
// back to the log for it.
func TestSubscribeFromClosesReplayRingGap(t *testing.T) {
	h := NewHub(4)
	l := &hookLog{}
	h.AttachLog(l)
	publishSeqs(h, 10) // log 1..10, ring 7..10
	fired := false
	l.onRead = func(result []Envelope) {
		if len(result) == 0 && !fired {
			fired = true
			publishSeqs(h, 10) // log 1..20, ring 17..20: 11..16 only in the log
		}
	}
	s := h.SubscribeFrom(Filter{}, 64, 0)
	got := drainSub(t, s)
	want := make([]uint64, 20)
	for i := range want {
		want[i] = uint64(i + 1)
	}
	requireSeqs(t, got, want...)
	for _, e := range got {
		if e.Marker != "" {
			t.Fatalf("marker %+v with the whole range in the log", e)
		}
	}
	s.Close()
}

// TestSubscribeFromAnnouncesUnclosableGap: when every catch-up read is
// overtaken by another burst the retries run out, and the range between
// the replay and the ring is announced with a marker for exactly that
// range — never skipped silently.
func TestSubscribeFromAnnouncesUnclosableGap(t *testing.T) {
	h := NewHub(4)
	l := &hookLog{}
	h.AttachLog(l)
	publishSeqs(h, 10)
	l.onRead = func(result []Envelope) {
		if len(result) == 0 {
			publishSeqs(h, 10) // every read that believes it caught up is overtaken
		}
	}
	s := h.SubscribeFrom(Filter{}, 4096, 0)
	got := drainSub(t, s)
	next := uint64(1)
	markers := 0
	for _, e := range got {
		if e.Marker != "" {
			markers++
			if e.Marker != MarkerReplayTruncated || e.Seq != next+e.Missing-1 || e.Missing == 0 {
				t.Fatalf("marker %+v does not cover exactly the range from %d", e, next)
			}
			next = e.Seq + 1
			continue
		}
		if e.Seq != next {
			t.Fatalf("seq %d after %d: a range was skipped without a marker", e.Seq, next-1)
		}
		next++
	}
	if markers != 1 {
		t.Fatalf("got %d markers, want exactly one for the unclosable range", markers)
	}
	if head := h.Ring().Last(1)[0].Seq; next != head+1 {
		t.Fatalf("stream ended at %d, hub head is %d", next-1, head)
	}
	s.Close()
}
