// Package serve is the alert gateway: the HTTP/SSE serving tier that
// turns the pipeline's per-slide alerts into a live stream many
// consumers can subscribe to, plus snapshot queries over the tracker,
// the moving-object store and the pipeline's health. The heart is a
// fan-out hub with one bounded drop-oldest queue per subscriber (the
// ingest stage's overflow policy applied per consumer), so one slow client
// can never stall recognition or other subscribers; every drop is
// counted and surfaced through /healthz.
//
// With an alert log attached (internal/alertlog) the hub is one node of
// a replicated serving tier: the writer hub appends every envelope
// durably before any subscriber sees it, and stateless replica hubs
// re-publish the tailed log through PublishEnvelopes, preserving the
// log-global sequence numbers — so Last-Event-ID reconnect replay gives
// exactly-once delivery across replica kill/restart, not just across
// one process's lifetime.
package serve

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/maritime"
	"repro/internal/obs"
)

// MarkerReplayTruncated tags the synthetic envelope a resuming
// subscriber receives when part of the requested replay range is no
// longer retained anywhere (ring trimmed and, when a log is attached,
// log pruned or beyond the queue bound): the gap is announced with its
// size instead of silently skipped.
const MarkerReplayTruncated = "replay-truncated"

// Envelope is one recognized alert as published to subscribers: the
// alert plus stream metadata for ordering, reconnect replay and
// latency accounting.
type Envelope struct {
	// Seq is the hub-wide monotonically increasing sequence number; SSE
	// clients resume after a reconnect with Last-Event-ID: <seq>. With
	// an alert log attached the sequence is log-global: every replica
	// serves the same envelope under the same number.
	Seq uint64 `json:"seq"`
	// Slide is the query time of the window slide that recognized the
	// alert (simulated time).
	Slide time.Time `json:"slide"`
	// Published is the wall-clock publish instant, for measuring
	// delivery latency in the load harness.
	Published time.Time      `json:"published"`
	Alert     maritime.Alert `json:"alert"`
	// Marker, when non-empty, makes this a synthetic control envelope
	// (no alert): MarkerReplayTruncated announces a replay gap. Markers
	// bypass subscriber filters.
	Marker string `json:"marker,omitempty"`
	// Missing is the number of sequence numbers a MarkerReplayTruncated
	// envelope stands in for.
	Missing uint64 `json:"missing,omitempty"`
}

// EnvelopeLog is the durable alert log the hub publishes through —
// implemented by alertlog.Log. Append must be idempotent by sequence
// (re-publishing after a checkpoint restore must not duplicate
// records); ReadSince serves reconnect replay past the in-memory
// ring's retention.
type EnvelopeLog interface {
	Append([]Envelope) error
	LastSeq() uint64
	ReadSince(afterSeq uint64, max int) ([]Envelope, error)
}

// Hub fans recognized alerts out to subscribers. Publish never blocks:
// each subscriber owns a bounded queue that drops its oldest entries
// when the consumer falls behind, with drops accounted per subscriber.
// Every subscriber is offered every published envelope and keeps what
// its Filter.Match accepts — one filter path, so a publish costs
// O(subscribers × envelopes).
type Hub struct {
	// pubMu serializes publishers end to end, so envelopes reach the
	// log, the ring — and every subscriber queue — in sequence order.
	// It is never held by Subscribe, Stats or remove, which only need
	// mu. The fan-out scratch below is guarded by it.
	pubMu sync.Mutex

	// mu guards the subscriber registry and the sequence/published
	// counters. It is held only for short bookkeeping sections — never
	// across the log append, the ring push or a subscriber offer — so
	// registering, departing and stats never wait on a fan-out in
	// flight.
	mu  sync.Mutex
	seq uint64
	// high is the highest sequence number ever fanned out. A restore
	// can set seq back below it (a rewind after a fault); the slides
	// replayed from there re-publish their alerts under the same numbers,
	// and envelopes at or below high reach the log (whose append skips
	// them) but not the ring or any subscriber again.
	high   uint64
	nextID int
	subs   []*Subscriber // live subscribers, in registration order
	ring   *Ring

	// log, when set, receives every envelope durably before any
	// subscriber; replay serves reconnect history past the ring (both
	// set by AttachLog; replicas set only replay via AttachReplay).
	log    EnvelopeLog
	replay EnvelopeLog

	published uint64
	// logErrs counts failed log appends: the hub keeps serving (its own
	// subscribers still get the envelopes) but replicas cannot see the
	// lost records until a checkpoint replay refills them.
	logErrs atomic.Uint64
	// Counters of departed subscribers, folded in so Stats stays
	// cumulative across unsubscribes.
	goneDelivered uint64
	goneDropped   uint64

	// fanout is the registry snapshot one publish offers to (under
	// pubMu), reused across publishes.
	fanout []*Subscriber
}

// NewHub returns a hub retaining ringCap alerts for replay and history
// queries (≤ 0 defaults to 1024).
func NewHub(ringCap int) *Hub {
	if ringCap <= 0 {
		ringCap = 1024
	}
	return &Hub{ring: NewRing(ringCap)}
}

// Ring exposes the alert-history ring buffer.
func (h *Hub) Ring() *Ring { return h.ring }

// AttachLog routes every publish through the durable alert log before
// fan-out and uses it for reconnect replay past the ring. Attach before
// the first publish.
func (h *Hub) AttachLog(l EnvelopeLog) {
	h.mu.Lock()
	h.log = l
	h.replay = l
	h.mu.Unlock()
}

// AttachReplay uses the log only as a replay source — the replica mode:
// envelopes arrive via PublishEnvelopes (already durable), so nothing
// is appended.
func (h *Hub) AttachReplay(l EnvelopeLog) {
	h.mu.Lock()
	h.replay = l
	h.mu.Unlock()
}

// LogAppendErrors returns how many log appends have failed.
func (h *Hub) LogAppendErrors() uint64 { return h.logErrs.Load() }

// Publish stamps the slide's alerts with sequence numbers, appends them
// to the durable log (when attached), then to the history ring, and
// offers them to every subscriber, whose filter keeps what it accepts.
// It never blocks on a slow consumer. Envelopes numbered at or below
// the highest sequence already published — a replay after a rewind —
// go to the log only.
//
// The no-gap/no-dup contract with SubscribeFrom survives the unlocked
// delivery: envelopes land in the ring before the subscriber snapshot
// is taken, so a consumer registering mid-publish either is in the
// snapshot (offered directly) or registered after the ring push (and
// preloaded from the ring); a subscriber that ends up on both paths
// deduplicates by sequence number in offer.
func (h *Hub) Publish(slide time.Time, alerts []maritime.Alert) {
	if len(alerts) == 0 {
		return
	}
	now := time.Now()
	h.pubMu.Lock()
	defer h.pubMu.Unlock()

	h.mu.Lock()
	log := h.log
	envs := make([]Envelope, len(alerts))
	for i, a := range alerts {
		h.seq++
		envs[i] = Envelope{Seq: h.seq, Slide: slide, Published: now, Alert: a}
	}
	fresh := envs
	if first := envs[0].Seq; h.high >= first {
		fresh = envs[min(h.high-first+1, uint64(len(envs))):]
	}
	h.high = max(h.high, h.seq)
	h.published += uint64(len(fresh))
	h.mu.Unlock()

	// Durability precedes visibility: the log append (with its fsync)
	// runs outside mu — publishers are serialized by pubMu anyway, and
	// Subscribe/Stats stay unblocked.
	if log != nil {
		if err := log.Append(envs); err != nil {
			h.logErrs.Add(1)
		}
	}
	if len(fresh) > 0 {
		h.deliver(fresh)
	}
}

// PublishEnvelopes re-publishes already-sequenced envelopes — the
// replica path: a tailer feeds the durable log's records through here,
// preserving their log-global sequence numbers, so SSE replay works
// identically on every replica. Nothing is appended to any log.
func (h *Hub) PublishEnvelopes(envs []Envelope) {
	if len(envs) == 0 {
		return
	}
	h.pubMu.Lock()
	defer h.pubMu.Unlock()

	h.mu.Lock()
	if last := envs[len(envs)-1].Seq; last > h.seq {
		h.seq = last
	}
	h.high = max(h.high, h.seq)
	h.published += uint64(len(envs))
	h.mu.Unlock()
	h.deliver(envs)
}

// deliver pushes envelopes to the ring, snapshots the registry, and
// offers the whole batch to every subscriber in it outside any hub
// lock; each subscriber's offer applies its filter. Callers hold pubMu.
func (h *Hub) deliver(envs []Envelope) {
	for i := range envs {
		h.ring.Push(envs[i])
	}

	h.mu.Lock()
	h.fanout = append(h.fanout[:0], h.subs...)
	h.mu.Unlock()

	for _, s := range h.fanout {
		s.offer(envs)
	}
	// Departed subscribers must not stay reachable through the scratch.
	clear(h.fanout)
}

// Subscribe registers a consumer with the given filter and queue
// capacity (≤ 0 defaults to 256).
func (h *Hub) Subscribe(f Filter, queueCap int) *Subscriber {
	return h.subscribe(f, queueCap, nil)
}

// SubscribeFrom registers a consumer and atomically pre-loads its queue
// with the retained history after sequence afterSeq, so an SSE client
// reconnecting with Last-Event-ID resumes without gaps or duplicates.
// The ring serves recent history; with a log attached, history past the
// ring's retention is replayed from the log (bounded by the queue
// capacity — older records would only be dropped-oldest out again).
// A ring that moved past the replay while it was being read sends the
// subscribe back to the log for the range in between. Any range retained
// nowhere is announced with a MarkerReplayTruncated envelope carrying
// the gap size, never silently skipped.
func (h *Hub) SubscribeFrom(f Filter, queueCap int, afterSeq uint64) *Subscriber {
	return h.subscribe(f, queueCap, &afterSeq)
}

// replayCatchUps bounds how often a resuming subscribe goes back to the
// log because the ring moved past the replay it had already read; past
// it the range is announced with a marker instead.
const replayCatchUps = 3

func (h *Hub) subscribe(f Filter, queueCap int, afterSeq *uint64) *Subscriber {
	if queueCap <= 0 {
		queueCap = 256
	}
	s := &Subscriber{filter: f, cap: queueCap, hub: h}
	s.cond = sync.NewCond(&s.mu)
	if afterSeq == nil {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.nextID++
		s.id = h.nextID
		// A fresh subscriber starts at the current head sequence: a
		// publish already in flight counts as "before" it.
		s.lastSeq = h.seq
		h.subs = append(h.subs, s)
		return s
	}
	after := *afterSeq

	// Resuming: fetch the log replay before taking the registry lock —
	// it reads segment files from disk.
	h.mu.Lock()
	replay := h.replay
	h.mu.Unlock()
	var logEnvs []Envelope
	have := after // everything up to it is replayed, floored away or before the cursor
	if replay != nil {
		// Replaying more than the queue holds is wasted work: the
		// oldest records would immediately drop out again. Floor the
		// cursor — reserving one slot for the truncation marker the
		// floor itself produces, so the marker is never the entry the
		// overflowing queue evicts — and announce the skipped prefix.
		if tail, room := replay.LastSeq(), uint64(queueCap-1); tail > room && have < tail-room {
			have = tail - room
		}
		logEnvs = readReplay(replay, have, nil)
	}

	// The ring keeps moving while the log is read: a burst larger than
	// the ring (one tailer batch on a replica, one dense slide on the
	// writer) leaves it starting past the replay's last record. The log
	// is always at or ahead of the ring, so go back to it for the range
	// in between, and register only once the two are contiguous.
	var ringEnvs []Envelope
	for try := 0; ; try++ {
		if len(logEnvs) > 0 {
			have = logEnvs[len(logEnvs)-1].Seq
		}
		h.mu.Lock()
		ringEnvs = h.ring.Since(have)
		if replay == nil || try == replayCatchUps || len(ringEnvs) == 0 || ringEnvs[0].Seq <= have+1 {
			break
		}
		h.mu.Unlock()
		n := len(logEnvs)
		if logEnvs = readReplay(replay, have, logEnvs); len(logEnvs) == n {
			replay = nil // the log cannot close the range either: announce it
		}
	}
	defer h.mu.Unlock()
	h.nextID++
	s.id = h.nextID
	// Seed the duplicate guard with the resume cursor. Without this, an
	// in-flight publish whose envelopes straddle the registration could
	// deliver alerts from before the resume point.
	s.lastSeq = after

	// Hand over replay then ring, announcing every range retained
	// nowhere with its size — before the replay (pruned, trimmed or
	// floored prefix), or between replay and ring (retries exhausted).
	cursor := after
	announce := func(upTo uint64) {
		if upTo > cursor {
			s.offer([]Envelope{{Seq: upTo, Marker: MarkerReplayTruncated, Missing: upTo - cursor}})
		}
	}
	if len(logEnvs) > 0 {
		announce(logEnvs[0].Seq - 1)
		s.offer(logEnvs)
		cursor = have
	}
	switch {
	case len(ringEnvs) > 0:
		announce(ringEnvs[0].Seq - 1)
		s.offer(ringEnvs)
	case h.ring.Len() == 0:
		// Empty ring behind a head past the cursor (snapshot restore
		// without history): everything in between is gone.
		announce(h.seq)
	}
	h.subs = append(h.subs, s)
	return s
}

// readReplay appends every record after afterSeq the replay source can
// deliver to dst; a failed read ends the replay where it stands (what
// is missing is then announced by the caller).
func readReplay(replay EnvelopeLog, afterSeq uint64, dst []Envelope) []Envelope {
	for {
		batch, err := replay.ReadSince(afterSeq, 4096)
		if err != nil || len(batch) == 0 {
			return dst
		}
		dst = append(dst, batch...)
		afterSeq = batch[len(batch)-1].Seq
	}
}

// remove detaches a closed subscriber, folding its counters into the
// hub's cumulative totals.
func (h *Hub) remove(s *Subscriber, delivered, dropped uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := slices.Index(h.subs, s)
	if i < 0 {
		return
	}
	h.subs = slices.Delete(h.subs, i, i+1)
	h.goneDelivered += delivered
	h.goneDropped += dropped
}

// SubStats is the accounting of one live subscriber.
type SubStats struct {
	ID        int    `json:"id"`
	Pending   int    `json:"pending"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}

// HubStats is the hub's cumulative accounting, surfaced via /healthz.
type HubStats struct {
	Subscribers int    `json:"subscribers"`
	Published   uint64 `json:"published"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	// LogAppendErrors counts durable-log appends that failed (serving
	// continued; replicas miss those records until replay refills them).
	LogAppendErrors uint64 `json:"log_append_errors,omitempty"`
	// Subs details the live subscribers (departed ones are folded into
	// the totals above).
	Subs []SubStats `json:"subs,omitempty"`
}

// Stats snapshots the hub's accounting.
func (h *Hub) Stats() HubStats {
	return h.stats(true)
}

// Totals is Stats without the per-subscriber detail — the cheap
// aggregate the metrics scrape and log lines want.
func (h *Hub) Totals() HubStats {
	return h.stats(false)
}

func (h *Hub) stats(detail bool) HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HubStats{
		Published:       h.published,
		Delivered:       h.goneDelivered,
		Dropped:         h.goneDropped,
		LogAppendErrors: h.logErrs.Load(),
	}
	st.Subscribers = len(h.subs)
	for _, s := range h.subs {
		ss := s.Stats()
		st.Delivered += ss.Delivered
		st.Dropped += ss.Dropped
		if detail {
			st.Subs = append(st.Subs, ss)
		}
	}
	return st
}

// RegisterMetrics exports the hub's fan-out accounting on the registry,
// sampled at scrape time from the same counters /healthz reports.
func (h *Hub) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("maritime_hub_subscribers", "Live alert-stream subscribers.", nil,
		func() float64 { return float64(h.Totals().Subscribers) })
	r.CounterFunc("maritime_hub_published_total", "Alert envelopes published to the hub.", nil,
		func() float64 { return float64(h.Totals().Published) })
	r.CounterFunc("maritime_hub_delivered_total", "Envelopes delivered across all subscribers (departed ones included).", nil,
		func() float64 { return float64(h.Totals().Delivered) })
	r.CounterFunc("maritime_hub_dropped_total", "Envelopes dropped by subscriber queues (drop-oldest overflow).", nil,
		func() float64 { return float64(h.Totals().Dropped) })
	r.CounterFunc("maritime_hub_log_append_errors_total", "Durable alert-log appends that failed.", nil,
		func() float64 { return float64(h.logErrs.Load()) })
}

// Subscriber is one consumer's bounded drop-oldest queue. The producer
// side (Hub.Publish) enqueues without ever blocking; the consumer pulls
// with Next/NextTimeout.
type Subscriber struct {
	id     int
	filter Filter
	hub    *Hub

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []Envelope // queue[head:] are the live entries
	head      int
	cap       int
	delivered uint64
	dropped   uint64
	closed    bool
	// lastSeq is the highest sequence number ever offered (enqueued or
	// filtered); offers at or below it are duplicates from the
	// replay-preload/live-publish overlap and are discarded.
	lastSeq uint64
}

// ID returns the hub-assigned subscriber id (stable for /healthz).
func (s *Subscriber) ID() int { return s.id }

// offer filters and enqueues the published envelopes, dropping this
// subscriber's oldest entries on overflow. It never blocks. Marker
// envelopes bypass the filter — a truncation announcement concerns
// every resuming subscriber.
func (s *Subscriber) offer(envs []Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	pushed := false
	for _, e := range envs {
		if e.Seq <= s.lastSeq {
			continue // duplicate of an envelope already offered
		}
		s.lastSeq = e.Seq
		if e.Marker == "" && !s.filter.Match(e.Alert) {
			continue
		}
		if len(s.queue)-s.head >= s.cap {
			// Overflow: this subscriber loses its own oldest alert; the
			// producer and every other subscriber are unaffected.
			s.head++
			s.dropped++
			if s.head > s.cap && s.head*2 > len(s.queue) {
				s.queue = append(s.queue[:0], s.queue[s.head:]...)
				s.head = 0
			}
		}
		s.queue = append(s.queue, e)
		pushed = true
	}
	if pushed {
		s.cond.Signal()
	}
}

// Next blocks until an envelope is available or the subscriber is
// closed (ok false).
func (s *Subscriber) Next() (Envelope, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == s.head && !s.closed {
		s.cond.Wait()
	}
	return s.pop()
}

// NextTimeout is Next with a deadline: timedOut reports an empty return
// because d elapsed first (the SSE pump uses this to emit heartbeats).
func (s *Subscriber) NextTimeout(d time.Duration) (env Envelope, ok, timedOut bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	expired := false
	t := time.AfterFunc(d, func() {
		s.mu.Lock()
		expired = true
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer t.Stop()
	for len(s.queue) == s.head && !s.closed && !expired {
		s.cond.Wait()
	}
	if expired && len(s.queue) == s.head && !s.closed {
		return Envelope{}, false, true
	}
	env, ok = s.pop()
	return env, ok, false
}

// pop removes the head entry; callers hold s.mu. A closed subscriber
// delivers nothing more, so its counters (folded into the hub's totals
// at Close) stay exact.
func (s *Subscriber) pop() (Envelope, bool) {
	if s.closed || len(s.queue) == s.head {
		return Envelope{}, false
	}
	e := s.queue[s.head]
	s.head++
	s.delivered++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	}
	return e, true
}

// Pending returns how many envelopes are queued for the consumer.
func (s *Subscriber) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) - s.head
}

// Stats snapshots the subscriber's accounting.
func (s *Subscriber) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubStats{
		ID:        s.id,
		Pending:   len(s.queue) - s.head,
		Delivered: s.delivered,
		Dropped:   s.dropped,
	}
}

// Close detaches the subscriber from the hub and releases a blocked
// Next. It is idempotent and safe to call from any goroutine (the SSE
// handler closes on client disconnect).
func (s *Subscriber) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	delivered, dropped := s.delivered, s.dropped
	s.cond.Broadcast()
	s.mu.Unlock()
	s.hub.remove(s, delivered, dropped)
}
