package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/rtec"
	"repro/internal/supervise"
	"repro/internal/tracker"
)

// Self-healing supervision (Config.SelfHeal). Every stateful target —
// tracker shards, the recognizer, the MOD store — gets the same
// treatment: a panic or watchdog stall quarantines the target instead
// of crashing or terminally abandoning it, the system keeps a journal
// of the target's recent input slides, and Heal rebuilds the target by
// restoring its last known-good snapshot and replaying the journal.
// Tracker shards implement this inside the tracker package (their
// journals are routed fixes); this file implements it for the
// recognizer and the store. All three keep their journals in
// supervise.Journal, so they share one retention rule.
//
// Alerts the recognizer would have produced while quarantined are
// reconstructed by the replay and delivered with the next slide's
// report ("recovered" alerts): the replayed recognizer starts from the
// pre-quarantine base whose seen-set already covers everything reported
// live, so recovered alerts are exactly the ones that were lost.

// Down-state of the recognizer or the store.
const (
	partUp       = 0 // in service
	partStalled  = 1 // watchdog-abandoned; goroutine may still run
	partPanicked = 2 // panic recovered mid-slide
	partFailed   = 3 // operator / supervisor gave up; out of service for good
)

// recSlide is one journaled recognition input slide.
type recSlide struct {
	q      time.Time
	events []rtec.Event
}

// recJournal is the recognizer's repair journal: the snapshot the next
// replay starts from plus every input slide since. downFrom indexes the
// first journaled slide whose live output was lost to a quarantine
// (-1 while healthy); a replay reports the alerts of slides from that
// point on as recovered.
type recJournal struct {
	supervise.Journal[maritime.RecognizerSnapshot, recSlide]
	downFrom int
}

// storeSlide is one journaled archival input slide. reconstruct records
// whether reconstruction+loading ran that slide (the degradation ladder
// may have deferred it), so a replay reproduces the same trip
// boundaries the live path would have.
type storeSlide struct {
	delta       []tracker.CriticalPoint
	reconstruct bool
}

// storeJournal is the MOD store's repair journal: a fork of the store
// (mod.MOD.Fork: shared points and trips, nothing encoded) plus the
// delta batches staged since. The base is never staged into; a repair
// forks it again.
type storeJournal = supervise.Journal[*mod.MOD, storeSlide]

// initSelfHeal arms the supervision layer: the tracker's own shard
// journals, and one journal for the recognizer and one for the store.
func (s *System) initSelfHeal(vessels []maritime.Vessel, areas []maritime.Area, ports []mod.PortArea) {
	s.selfHeal = true
	s.vessels, s.areas, s.ports = vessels, areas, ports
	s.tracker.EnableSelfHeal(s.journalEvery)
	if s.cfg.WatchdogTimeout > 0 {
		s.tracker.SetSlideTimeout(s.cfg.WatchdogTimeout)
	}
	s.resetJournals()
}

// resetJournals starts the recognizer's and the store's journal over
// from their current state.
func (s *System) resetJournals() {
	if s.rec != nil {
		s.recJ = &recJournal{
			Journal:  supervise.NewJournal[maritime.RecognizerSnapshot, recSlide](s.rec.Snapshot(), s.journalEvery),
			downFrom: -1,
		}
	}
	if !s.cfg.DisableArchival {
		j := supervise.NewJournal[*mod.MOD, storeSlide](s.store.Fork(), s.journalEvery)
		s.storeJ = &j
	}
}

// journalRec appends one input slide to the recognizer's journal. A
// slide the retention cap evicts is a replay gap; if its live output
// was lost to the quarantine, its events are now lost for good.
func (s *System) journalRec(q time.Time, events []rtec.Event) {
	j := s.recJ
	old, evicted := j.Append(recSlide{q: q, events: append(j.Spare().events[:0], events...)})
	if !evicted {
		return
	}
	s.journalGaps.Add(1)
	switch {
	case j.downFrom > 0:
		j.downFrom--
	case j.downFrom == 0:
		s.watchdogLostEvents.Add(int64(len(old.events)))
	}
}

// journalStore appends one archival input slide to the store journal;
// a slide the retention cap evicts is a replay gap.
func (s *System) journalStore(delta []tracker.CriticalPoint, reconstruct bool) {
	if s.storeDown.Load() == partFailed {
		return
	}
	if _, evicted := s.storeJ.Append(storeSlide{
		delta:       append(s.storeJ.Spare().delta[:0], delta...),
		reconstruct: reconstruct,
	}); evicted {
		s.journalGaps.Add(1)
	}
}

// quarantineRecognizer takes the recognizer out of service: its events
// slot is abandoned to whatever goroutine may still hold it and its
// journal is marked. Without SelfHeal the slide's events are lost; with
// it they are journaled, and count as lost only once no replay can
// recover them (journalRec, Abandon).
func (s *System) quarantineRecognizer(state int32, info supervise.Quarantine) {
	s.recDown.Store(state)
	s.recInfo = info
	if state == partPanicked {
		s.panicsRecovered.Add(1)
	}
	if !s.selfHeal {
		s.watchdogLostEvents.Add(int64(len(s.recEvents)))
	}
	// The abandoned goroutine may still hold this slide's backing
	// array; never append into it again.
	s.recEvents = nil
	// This slide (already journaled) and every one after it are missing
	// from live output until a replay recovers them.
	if s.recJ != nil && s.recJ.downFrom < 0 {
		s.recJ.downFrom = len(s.recJ.Slides) - 1
	}
}

// quarantineStore takes the archival path out of service.
func (s *System) quarantineStore(info supervise.Quarantine) {
	s.storeDown.Store(partPanicked)
	s.storeInfo = info
	s.panicsRecovered.Add(1)
}

// rebaseJournals re-bases every healthy journal that has accumulated a
// full cadence of slides, bounding replay cost and journal memory.
func (s *System) rebaseJournals() {
	if !s.selfHeal {
		return
	}
	t := time.Now()
	if j := s.recJ; j != nil && j.downFrom < 0 && s.recDown.Load() == partUp && j.Due() {
		j.Rebase(s.rec.Snapshot())
	}
	mid := time.Now()
	s.rebaseRecNanos.Add(int64(mid.Sub(t)))
	if s.storeJ != nil && s.storeDown.Load() == partUp && s.storeJ.Due() {
		s.storeJ.Rebase(s.store.Fork())
		s.rebaseStoreNanos.Add(int64(time.Since(mid)))
	}
}

// Quarantined lists every target currently quarantined and repairable
// by Heal — tracker shards, the recognizer, the store. Failed (given-up)
// targets are not listed; they show up in Health.Failed.
func (s *System) Quarantined() []supervise.Quarantine {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	out := s.tracker.Quarantined()
	if d := s.recDown.Load(); d == partStalled || d == partPanicked {
		out = append(out, s.recInfo)
	}
	if d := s.storeDown.Load(); d == partStalled || d == partPanicked {
		out = append(out, s.storeInfo)
	}
	return out
}

// Heal repairs one quarantined target by restore-then-replay and
// re-admits it. Targets use the supervise namespace: "tracker/N",
// "recognizer", "store". The repair runs under the pipeline lock, so it
// must not be called from an AlertSink (use OnSlideEnd, which fires
// outside the lock).
func (s *System) Heal(target string) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if !s.selfHeal {
		return errors.New("core: self-heal is not enabled")
	}
	switch {
	case strings.HasPrefix(target, "tracker/"):
		i, err := strconv.Atoi(target[len("tracker/"):])
		if err != nil {
			return fmt.Errorf("core: bad heal target %q", target)
		}
		return s.tracker.RepairShard(i)
	case target == "store":
		return s.healStore()
	case target == "recognizer" && s.rec != nil:
		return s.healRecognizer()
	}
	return fmt.Errorf("core: unknown heal target %q", target)
}

// Abandon gives up on a quarantined target: it moves to failed, its
// journal is freed, and it stays out of service until a snapshot
// restore supersedes the failure. The supervisor calls this when a
// target keeps failing past its give-up threshold.
func (s *System) Abandon(target string) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	switch {
	case strings.HasPrefix(target, "tracker/"):
		if i, err := strconv.Atoi(target[len("tracker/"):]); err == nil {
			s.tracker.AbandonShard(i)
		}
	case target == "store":
		if s.storeDown.Load() != partUp {
			s.storeDown.Store(partFailed)
			if s.storeJ != nil {
				s.storeJ.Slides = nil
			}
		}
	case target == "recognizer":
		if s.recDown.Load() != partUp {
			s.recDown.Store(partFailed)
			if j := s.recJ; j != nil {
				// Free the journal: what it held since the quarantine can
				// no longer be recovered.
				for _, sl := range j.Slides[max(j.downFrom, 0):] {
					s.watchdogLostEvents.Add(int64(len(sl.events)))
				}
				j.Slides, j.downFrom = nil, -1
			}
		}
	}
}

// healRecognizer rebuilds the recognizer from its journal base, replays
// every journaled slide, collects the alerts of the quarantine window
// as recovered, and re-admits. A panic during replay leaves the target
// quarantined and returns an error.
func (s *System) healRecognizer() (err error) {
	if d := s.recDown.Load(); d != partStalled && d != partPanicked {
		return errors.New("core: recognizer is not quarantined")
	}
	j := s.recJ
	var recovered []maritime.Alert
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: replaying recognizer panicked: %v", r)
		}
	}()
	rec := maritime.NewRecognizer(s.cfg.Recognition, s.vessels, s.areas)
	rec.RestoreSnapshot(j.Base)
	for k := range j.Slides {
		sl := &j.Slides[k]
		snap := rec.Advance(sl.q, sl.events, nil)
		if j.downFrom >= 0 && k >= j.downFrom {
			recovered = append(recovered, snap.Alerts...)
		}
	}
	// Re-admit. The old recognizer object is simply leaked: a stalled
	// goroutine may still be running against it.
	s.rec = rec
	s.recDown.Store(partUp)
	s.recInfo = supervise.Quarantine{}
	j.Rebase(rec.Snapshot())
	j.downFrom = -1
	s.recovered = append(s.recovered, recovered...)
	s.restores.Add(1)
	return nil
}

// healStore rebuilds the MOD store from a fork of its journal base and
// replays the staged deltas, reproducing the same reconstruction
// boundaries the live path used. The base itself stays untouched, so a
// replay that panics can be retried.
func (s *System) healStore() (err error) {
	if d := s.storeDown.Load(); d != partStalled && d != partPanicked {
		return errors.New("core: store is not quarantined")
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: replaying store panicked: %v", r)
		}
	}()
	st := s.storeJ.Base.Fork()
	for _, sl := range s.storeJ.Slides {
		st.Stage(sl.delta)
		if sl.reconstruct {
			st.Load(st.Reconstruct())
		}
	}
	s.store = st
	s.storeDown.Store(partUp)
	s.storeInfo = supervise.Quarantine{}
	s.noteStaged()
	s.storeJ.Rebase(s.store.Fork())
	s.restores.Add(1)
	return nil
}

// OnSlideEnd registers fn to run after every ProcessBatch, outside the
// pipeline lock. The supervisor attaches here: its Heal and Abandon
// calls take the same lock, so running callbacks inside it would
// deadlock.
func (s *System) OnSlideEnd(fn func(SlideReport)) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.onSlideEnd = append(s.onSlideEnd, fn)
}

// SetRecognizerFaultHook installs fn at the start of every recognition
// step. Chaos tests inject panics and stalls through it; nil uninstalls.
func SetRecognizerFaultHook(fn func()) {
	if fn == nil {
		recognizerAdvanceHook.Store(nil)
		return
	}
	recognizerAdvanceHook.Store(&fn)
}

// SetStoreFaultHook installs fn at the start of every archival step;
// chaos tests inject panics through it. nil uninstalls.
func (s *System) SetStoreFaultHook(fn func()) {
	if fn == nil {
		s.storeHook.Store(nil)
		return
	}
	s.storeHook.Store(&fn)
}
