package tracker

import (
	"fmt"
	"time"

	"repro/internal/supervise"
)

// Self-healing for the sharded tier. With EnableSelfHeal on, a panic in
// a shard worker no longer kills the process: the shard is rebuilt from
// a per-shard journal — a base snapshot of its vessels plus the routed
// fixes of every slide since — and the slide is re-run synchronously,
// so a transient panic costs nothing but latency and the merged output
// stays bit-identical. A shard that panics again during the re-run, or
// that outlives the slide watchdog, is quarantined instead: its fixes
// are journaled but dropped from the live output (counted in
// FaultStats.DroppedFixes) until a supervisor calls RepairShard, which
// replays the journal into a fresh shard and re-admits it.
//
// The journal (supervise.Journal) is re-based every cadence of healthy
// slides so replay cost stays bounded. While a shard is quarantined the
// journal keeps growing up to the shared retention cap; beyond that the
// oldest slides are discarded and counted as replay gaps
// (FaultStats.GapSlides): repair then restores a state missing those
// slides' fixes — degraded but deterministic, the same accounting
// contract checkpoint replay uses.

// DefaultJournalSlides is the re-base cadence used when EnableSelfHeal
// is given a non-positive value.
const DefaultJournalSlides = 8

// shardSlide is one journaled slide of one shard: the query time and a
// copy of its routed input, in a buffer recycled from the slide that
// last held the journal slot (supervise.Journal.Spare).
type shardSlide struct {
	q  time.Time
	in shardIn
}

// shardBase is the state a shard's replay starts from, kept in buffers
// the journal owns: every re-base truncates them and refills them in
// place from the live shard, and a replay copies out of them. A warm
// re-base therefore allocates nothing, the base holds exactly the
// shard's current state (not each vessel's largest-ever capacity), and
// a replay that panics leaves it intact for the next attempt. Each
// vessel's slices follow the previous vessel's in the shared buffers.
type shardBase struct {
	vessels  []baseVessel
	recent   []velEntry
	turns    []float64
	runs     []runFix // each vessel's stop run, then its slow run
	synopsis []CriticalPoint
	stats    Stats

	lastQueryNS int64
	haveLastQ   bool
}

// baseVessel is one vessel of a shard base: its scalar state and the
// lengths of its slices in the base's buffers.
type baseVessel struct {
	vesselCore
	recent, turns, stop, slow, synopsis int32
}

// capture refills the base from the live shard.
func (b *shardBase) capture(tr *shard) {
	b.vessels, b.recent, b.turns = b.vessels[:0], b.recent[:0], b.turns[:0]
	b.runs, b.synopsis = b.runs[:0], b.synopsis[:0]
	for _, st := range tr.vessels {
		b.vessels = append(b.vessels, baseVessel{
			vesselCore: st.vesselCore,
			recent:     int32(len(st.recent)),
			turns:      int32(len(st.recentTurns)),
			stop:       int32(len(st.stopRun)),
			slow:       int32(len(st.slowRun)),
			synopsis:   int32(st.synopsis.Len()),
		})
		b.recent = append(b.recent, st.recent...)
		b.turns = append(b.turns, st.recentTurns...)
		b.runs = append(append(b.runs, st.stopRun...), st.slowRun...)
		b.synopsis = st.synopsis.AppendValues(b.synopsis)
	}
	copyStats(&b.stats, tr.stats)
	b.lastQueryNS, b.haveLastQ = tr.lastQueryNS, tr.haveLastQ
}

// restore fills an empty shard with deep copies of the base's state.
// The vessels' slices get the capacities ingest gives a new vessel.
func (b *shardBase) restore(tr *shard) {
	m := tr.params.M
	recent, turns, runs, synopsis := b.recent, b.turns, b.runs, b.synopsis
	for i := range b.vessels {
		bv := &b.vessels[i]
		st := &vesselState{
			vesselCore:  bv.vesselCore,
			recent:      take(&recent, bv.recent, m),
			recentTurns: take(&turns, bv.turns, m),
			stopRun:     take(&runs, bv.stop, 2*m),
			slowRun:     take(&runs, bv.slow, 2*m),
		}
		for _, cp := range synopsis[:bv.synopsis] {
			st.synopsis.Append(cp.Time, cp)
		}
		synopsis = synopsis[bv.synopsis:]
		tr.vessels[bv.mmsi] = st
	}
	copyStats(&tr.stats, b.stats)
	tr.lastQueryNS, tr.haveLastQ = b.lastQueryNS, b.haveLastQ
}

// take copies the first n elements of *buf into a new slice of at
// least capacity c and advances *buf past them.
func take[T any](buf *[]T, n int32, c int) []T {
	out := append(make([]T, 0, max(int(n), c)), (*buf)[:n]...)
	*buf = (*buf)[n:]
	return out
}

// shardHeal is the per-shard repair state.
type shardHeal struct {
	quarantined bool
	failed      bool // supervisor gave up; out of service until restart/restore
	info        supervise.Quarantine
	journal     supervise.Journal[shardBase, shardSlide]
}

// EnableSelfHeal turns on panic isolation, journaling, and repair for
// the tier. journalEvery is the re-base cadence in slides (<=0 uses
// DefaultJournalSlides). It must be called before the first Slide and
// is idempotent.
func (s *Sharded) EnableSelfHeal(journalEvery int) {
	if s.heal != nil {
		return
	}
	if journalEvery <= 0 {
		journalEvery = DefaultJournalSlides
	}
	s.heal = make([]shardHeal, len(s.shards))
	for i := range s.shards {
		s.heal[i].journal = supervise.NewJournal[shardBase, shardSlide](shardBase{}, journalEvery)
		s.rebase(i)
	}
}

// SetSlideTimeout arms the per-slide stall watchdog: every shard runs
// on the pool, and one that has not finished its slide within d is
// quarantined and its pool worker replaced. Zero disables the watchdog.
// Requires EnableSelfHeal and, like it, must be called before the first
// Slide.
func (s *Sharded) SetSlideTimeout(d time.Duration) { s.timeout = d }

// SetFaultHook installs a chaos-injection hook called at the start of
// every shard slide with the shard index, the slide ordinal (1-based),
// and the attempt (0 for the live run, 1 for the in-slide re-run after
// a panic). The hook may panic — recovered and handled like any shard
// panic — or block, which the stall watchdog converts into a
// quarantine. Pass nil to remove. Requires EnableSelfHeal to have any
// effect.
func (s *Sharded) SetFaultHook(fn func(shard, slide, attempt int)) {
	if fn == nil {
		s.faultHook.Store(nil)
		return
	}
	s.faultHook.Store(&fn)
}

// FaultStats is the tier's fault-handling counter snapshot. All fields
// are served from atomics, so it is safe to call from any goroutine.
type FaultStats struct {
	Panics       int // shard panics recovered (including re-run panics)
	Stalls       int // shards quarantined by the slide watchdog
	Retries      int // in-slide rebuild-and-rerun recoveries (lossless)
	Repairs      int // quarantine -> replay -> re-admit cycles completed
	Quarantined  int // shards currently quarantined
	Failed       int // shards abandoned after repair gave up
	DroppedFixes int // fixes dropped while their shard was out of service
	GapSlides    int // journal slides discarded by the cap (lost to replay)
}

// FaultStats returns the current fault counters.
func (s *Sharded) FaultStats() FaultStats {
	return FaultStats{
		Panics:       int(s.panics.Load()),
		Stalls:       int(s.stalls.Load()),
		Retries:      int(s.retries.Load()),
		Repairs:      int(s.repairs.Load()),
		Quarantined:  int(s.quarCount.Load()),
		Failed:       int(s.failedCount.Load()),
		DroppedFixes: int(s.dropped.Load()),
		GapSlides:    int(s.gapSlides.Load()),
	}
}

// Quarantined returns the quarantine records of every out-of-service
// shard awaiting repair, as of the last finished slide. It does not
// finish the slide in flight: the supervisor polls it after every
// slide, and quarantines change only when a slide finishes.
func (s *Sharded) Quarantined() []supervise.Quarantine {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []supervise.Quarantine
	for i := range s.heal {
		if s.heal[i].quarantined {
			out = append(out, s.heal[i].info)
		}
	}
	return out
}

// journalAppend records one shard's routed fixes for the current slide;
// a slide evicted by the retention cap is counted as a replay gap (only
// reachable while the shard is quarantined, since healthy journals
// re-base well below the cap).
func (s *Sharded) journalAppend(i int, q time.Time) {
	h := &s.heal[i]
	if h.failed {
		return
	}
	in := s.in[i]
	in.recs = append(h.journal.Spare().in.recs[:0], in.recs...)
	if _, evicted := h.journal.Append(shardSlide{q: q, in: in}); evicted {
		s.gapSlides.Add(1)
	}
}

// quarantineShard takes a shard out of service: its fixes for this
// slide are counted dropped, and its input buffers are left to any
// goroutine still holding them (fresh ones are allocated on next use).
func (s *Sharded) quarantineShard(i int, q supervise.Quarantine) {
	h := &s.heal[i]
	h.quarantined = true
	h.info = q
	s.quarCount.Add(1)
	s.skip[i] = true
	s.dropped.Add(int64(len(s.in[i].recs)))
	s.in[i] = shardIn{}
}

// rebaseDue re-bases every healthy journal holding a full cadence, so
// replay cost stays bounded, and accounts the time spent.
func (s *Sharded) rebaseDue() {
	var start time.Time
	for i := range s.shards {
		if !s.outOfService(i) && s.heal[i].journal.Due() {
			if start.IsZero() {
				start = time.Now()
			}
			s.rebase(i)
		}
	}
	if !start.IsZero() {
		s.rebaseNanos.Add(int64(time.Since(start)))
	}
}

// RebaseTime returns the total time cadence re-bases of the shard
// journals have taken. Safe to call from any goroutine.
func (s *Sharded) RebaseTime() time.Duration { return time.Duration(s.rebaseNanos.Load()) }

// rebase captures the shard's current state as the journal base, in
// place, and clears the journaled slides.
func (s *Sharded) rebase(i int) {
	j := &s.heal[i].journal
	j.Base.capture(s.shards[i])
	j.Rebase(j.Base)
}

// replayShard rebuilds a shard from its journal base and replays every
// journaled slide into a fresh tracker. With rerunCurrent, the last
// journal entry is the in-flight slide: the chaos hook fires for it
// (attempt 1) and its output is returned for the merge. A panic during
// replay is recovered and returned as a quarantine record.
func (s *Sharded) replayShard(i int, hook *func(shard, slide, attempt int), rerunCurrent bool) (tr *shard, out shardOut, qr *supervise.Quarantine) {
	defer func() {
		if r := recover(); r != nil {
			q := supervise.Panicked(fmt.Sprintf("tracker/%d", i), r)
			tr, out, qr = nil, shardOut{}, &q
		}
	}()
	j := &s.heal[i].journal
	tr = s.newShard()
	j.Base.restore(tr)
	last := len(j.Slides) - 1
	for k := range j.Slides {
		sl := &j.Slides[k]
		start := time.Now()
		if rerunCurrent && k == last && hook != nil {
			(*hook)(i, s.slideSeq, 1)
		}
		gapStart, delta := tr.slide(sl.in, sl.q)
		if k == last {
			end := time.Now()
			out = shardOut{gapStart: gapStart, delta: delta, dur: end.Sub(start), end: end}
		}
	}
	// Tier-wide atomics are wired only now, so the replay itself did not
	// double-count late or shed fixes.
	s.wireShared(tr)
	return tr, out, nil
}

// RepairShard rebuilds a quarantined shard from its journal and
// re-admits it, after finishing the slide in flight (whose fixes for
// the shard the journal then holds). An error leaves the shard
// quarantined: either the target is not quarantined, or the replay
// panicked again (a persistent fault the supervisor will back off on).
func (s *Sharded) RepairShard(i int) error {
	s.settle()
	defer s.mu.Unlock()
	if s.heal == nil {
		return fmt.Errorf("tracker: self-heal not enabled")
	}
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("tracker: no shard %d", i)
	}
	h := &s.heal[i]
	if !h.quarantined {
		return fmt.Errorf("tracker: shard %d is not quarantined", i)
	}
	tr, _, qr := s.replayShard(i, nil, false)
	if qr != nil {
		return fmt.Errorf("tracker: shard %d replay panicked again: %s", i, qr.Value)
	}
	s.shards[i] = tr
	h.quarantined = false
	h.info = supervise.Quarantine{}
	s.quarCount.Add(-1)
	s.repairs.Add(1)
	s.rebase(i)
	return nil
}

// AbandonShard marks a quarantined shard as permanently failed: its
// journal is freed and its fixes keep being dropped (and counted) until
// a process restart or snapshot restore. Called by the supervisor when
// repairs exhaust the give-up threshold.
func (s *Sharded) AbandonShard(i int) {
	s.settle()
	defer s.mu.Unlock()
	if s.heal == nil || i < 0 || i >= len(s.shards) {
		return
	}
	h := &s.heal[i]
	if !h.quarantined {
		return
	}
	h.quarantined = false
	h.failed = true
	s.quarCount.Add(-1)
	s.failedCount.Add(1)
	h.journal.Base, h.journal.Slides = shardBase{}, nil
}

// resetHeal re-admits every shard ahead of a snapshot restore,
// replacing quarantined/failed shards outright (a wedged goroutine
// may still be mutating them).
func (s *Sharded) resetHeal() {
	for i := range s.heal {
		h := &s.heal[i]
		if h.quarantined || h.failed {
			if h.quarantined {
				s.quarCount.Add(-1)
			} else {
				s.failedCount.Add(-1)
			}
			tr := s.newShard()
			s.wireShared(tr)
			s.shards[i] = tr
			s.in[i] = shardIn{}
		}
		h.quarantined, h.failed = false, false
		h.info = supervise.Quarantine{}
		h.journal.Slides = nil
	}
}

// copyStats copies src into dst, reusing dst's ByType map.
func copyStats(dst *Stats, src Stats) {
	byType := dst.ByType
	if byType == nil {
		byType = make(map[EventType]int, len(src.ByType))
	}
	clear(byType)
	for k, v := range src.ByType {
		byType[k] = v
	}
	*dst = src
	dst.ByType = byType
}
