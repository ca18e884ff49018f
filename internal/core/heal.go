package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
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
// tracker shards, recognizer partitions, the MOD store — gets the same
// treatment: a panic or watchdog stall quarantines the target instead
// of crashing or terminally abandoning it, the system keeps a journal
// of the target's recent input slides, and Heal rebuilds the target by
// restoring its last known-good snapshot and replaying the journal.
// Tracker shards implement this inside the tracker package (their
// journals are routed fixes); this file implements it for the
// recognizers and the store.
//
// Alerts a recognizer would have produced while quarantined are
// reconstructed by the replay and delivered with the next slide's
// report ("recovered" alerts): the replayed recognizer starts from the
// pre-quarantine base whose seen-set already covers everything reported
// live, so recovered alerts are exactly the ones that were lost.

// Down-state of a recognizer partition or the store.
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
	facts  []maritime.SpatialFact
}

// recJournal is one recognizer's repair journal: the snapshot the next
// replay starts from plus every input slide since. downFrom indexes the
// first journaled slide whose live output was lost to a quarantine
// (-1 while healthy); a replay reports the alerts of slides from that
// point on as recovered.
type recJournal struct {
	base     maritime.RecognizerSnapshot
	slides   []recSlide
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
type storeJournal struct {
	base   *mod.MOD
	slides []storeSlide
}

// initSelfHeal arms the supervision layer: the tracker's own shard
// journals, and one journal per recognizer plus one for the store.
func (s *System) initSelfHeal(vessels []maritime.Vessel, areas []maritime.Area, ports []mod.PortArea) {
	s.selfHeal = true
	s.vessels, s.areas, s.ports = vessels, areas, ports
	s.journalEvery = s.cfg.JournalSlides
	if s.journalEvery <= 0 {
		s.journalEvery = tracker.DefaultJournalSlides
	}
	s.journalCap = s.journalEvery * 8
	s.tracker.EnableSelfHeal(s.journalEvery)
	if s.cfg.WatchdogTimeout > 0 {
		s.tracker.SetSlideTimeout(s.cfg.WatchdogTimeout)
	}
	if n := s.recognizerCount(); n > 0 {
		s.recJ = make([]recJournal, n)
		for i := range s.recJ {
			s.recJ[i] = recJournal{base: s.recAt(i).Snapshot(), downFrom: -1}
		}
	}
	if !s.cfg.DisableArchival {
		s.storeJ = &storeJournal{base: s.store.Fork()}
	}
}

// recAt returns recognizer i (the single recognizer for index 0 of an
// unpartitioned system).
func (s *System) recAt(i int) *maritime.Recognizer {
	if s.recognizer != nil {
		return s.recognizer
	}
	return s.partitions[i].rec
}

// recDown returns recognizer i's down-state.
func (s *System) recDown(i int) int32 {
	if s.recognizer != nil {
		return s.singleDown.Load()
	}
	return s.partitions[i].down.Load()
}

// recTarget names recognizer i in the supervisor's namespace.
func (s *System) recTarget(i int) string {
	if s.recognizer != nil {
		return "recognizer"
	}
	return fmt.Sprintf("recognizer/%d", i)
}

// newQuarantine captures a recovered panic into a quarantine record.
func newQuarantine(target string, v any) supervise.Quarantine {
	return supervise.Quarantine{
		Target: target,
		Cause:  "panic",
		Value:  fmt.Sprint(v),
		Stack:  string(debug.Stack()),
		Since:  time.Now(),
	}
}

// stallQuarantine captures a watchdog trip into a quarantine record.
func stallQuarantine(target string) supervise.Quarantine {
	return supervise.Quarantine{Target: target, Cause: "stall", Since: time.Now()}
}

// journalRec appends one input slide to recognizer i's journal,
// evicting (and accounting) exactly the oldest slide at the cap.
func (s *System) journalRec(i int, q time.Time, events []rtec.Event, facts []maritime.SpatialFact) {
	j := &s.recJ[i]
	if s.recDown(i) == partFailed {
		return
	}
	if len(j.slides) >= s.journalCap {
		j.slides = slices.Delete(j.slides, 0, 1)
		if j.downFrom > 0 {
			j.downFrom--
		}
		s.journalGaps.Add(1)
	}
	j.slides = append(j.slides, recSlide{
		q:      q,
		events: append([]rtec.Event(nil), events...),
		facts:  append([]maritime.SpatialFact(nil), facts...),
	})
}

// journalStore appends one archival input slide to the store journal,
// evicting (and accounting) exactly the oldest slide at the cap.
func (s *System) journalStore(delta []tracker.CriticalPoint, reconstruct bool) {
	j := s.storeJ
	if s.storeDown.Load() == partFailed {
		return
	}
	if len(j.slides) >= s.journalCap {
		j.slides = slices.Delete(j.slides, 0, 1)
		s.journalGaps.Add(1)
	}
	j.slides = append(j.slides, storeSlide{
		delta:       append([]tracker.CriticalPoint(nil), delta...),
		reconstruct: reconstruct,
	})
}

// markRecDown records that recognizer i's current slide (already
// journaled) and everything after it will be missing from live output.
func (s *System) markRecDown(i int) {
	if s.recJ == nil {
		return
	}
	if j := &s.recJ[i]; j.downFrom < 0 {
		j.downFrom = len(j.slides) - 1
	}
}

// quarantinePartition takes recognition partition i out of service: its
// routed events are accounted as lost, its scratch slot is abandoned to
// whatever goroutine may still hold it, and its journal is marked.
func (s *System) quarantinePartition(i int, state int32, info supervise.Quarantine) {
	p := s.partitions[i]
	p.down.Store(state)
	p.info = info
	if state == partPanicked {
		s.panicsRecovered.Add(1)
	}
	s.watchdogLostEvents.Add(int64(len(s.evByPart[i])))
	// The abandoned goroutine may still hold this slide's backing
	// arrays; never append into them again.
	s.evByPart[i] = nil
	s.factByPart[i] = nil
	s.markRecDown(i)
}

// quarantineSingle is quarantinePartition for the unpartitioned
// recognizer.
func (s *System) quarantineSingle(state int32, info supervise.Quarantine, lostEvents int) {
	s.singleDown.Store(state)
	s.singleInfo = info
	if state == partPanicked {
		s.panicsRecovered.Add(1)
	}
	s.watchdogLostEvents.Add(int64(lostEvents))
	s.markRecDown(0)
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
	for i := range s.recJ {
		j := &s.recJ[i]
		if j.downFrom >= 0 || s.recDown(i) != partUp || len(j.slides) < s.journalEvery {
			continue
		}
		j.base = s.recAt(i).Snapshot()
		j.slides = j.slides[:0]
	}
	mid := time.Now()
	s.rebaseRecNanos.Add(int64(mid.Sub(t)))
	if s.storeJ != nil && s.storeDown.Load() == partUp && len(s.storeJ.slides) >= s.journalEvery {
		s.rebaseStore()
		s.rebaseStoreNanos.Add(int64(time.Since(mid)))
	}
}

// rebaseStore swaps the store journal's base for a fork of the store as
// it is now.
func (s *System) rebaseStore() {
	s.storeJ.base = s.store.Fork()
	s.storeJ.slides = s.storeJ.slides[:0]
}

// Quarantined lists every target currently quarantined and repairable
// by Heal — tracker shards, recognizers, the store. Failed (given-up)
// targets are not listed; they show up in Health.Failed.
func (s *System) Quarantined() []supervise.Quarantine {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	out := s.tracker.Quarantined()
	if d := s.singleDown.Load(); d == partStalled || d == partPanicked {
		out = append(out, s.singleInfo)
	}
	for _, p := range s.partitions {
		if d := p.down.Load(); d == partStalled || d == partPanicked {
			out = append(out, p.info)
		}
	}
	if d := s.storeDown.Load(); d == partStalled || d == partPanicked {
		out = append(out, s.storeInfo)
	}
	return out
}

// Heal repairs one quarantined target by restore-then-replay and
// re-admits it. Targets use the supervise namespace: "tracker/N",
// "recognizer", "recognizer/N", "store". The repair runs under the
// pipeline lock, so it must not be called from an AlertSink (use
// OnSlideEnd, which fires outside the lock).
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
	case target == "recognizer":
		if s.recognizer == nil {
			return errors.New("core: system has no unpartitioned recognizer")
		}
		return s.healRecognizer(0)
	case strings.HasPrefix(target, "recognizer/"):
		i, err := strconv.Atoi(target[len("recognizer/"):])
		if err != nil || i < 0 || i >= len(s.partitions) {
			return fmt.Errorf("core: bad heal target %q", target)
		}
		return s.healRecognizer(i)
	case target == "store":
		return s.healStore()
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
	case target == "recognizer":
		if s.singleDown.Load() != partUp {
			s.singleDown.Store(partFailed)
			s.freeRecJournal(0)
		}
	case strings.HasPrefix(target, "recognizer/"):
		i, err := strconv.Atoi(target[len("recognizer/"):])
		if err == nil && i >= 0 && i < len(s.partitions) && s.partitions[i].down.Load() != partUp {
			s.partitions[i].down.Store(partFailed)
			s.freeRecJournal(i)
		}
	case target == "store":
		if s.storeDown.Load() != partUp {
			s.storeDown.Store(partFailed)
			if s.storeJ != nil {
				s.storeJ.slides = nil
			}
		}
	}
}

func (s *System) freeRecJournal(i int) {
	if s.recJ != nil {
		s.recJ[i].slides = nil
	}
}

// healRecognizer rebuilds recognizer i from its journal base, replays
// every journaled slide, collects the alerts of the quarantine window
// as recovered, and re-admits. A panic during replay leaves the target
// quarantined and returns an error.
func (s *System) healRecognizer(i int) (err error) {
	down := s.recDown(i)
	if down != partStalled && down != partPanicked {
		return fmt.Errorf("core: %s is not quarantined", s.recTarget(i))
	}
	j := &s.recJ[i]
	areas := s.areas
	if s.recognizer == nil {
		areas = s.partitions[i].areas
	}
	var recovered []maritime.Alert
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: replaying %s panicked: %v", s.recTarget(i), r)
		}
	}()
	rec := maritime.NewRecognizer(s.cfg.Recognition, s.vessels, areas)
	rec.RestoreSnapshot(j.base)
	for k := range j.slides {
		sl := &j.slides[k]
		snap := rec.Advance(sl.q, sl.events, sl.facts)
		if j.downFrom >= 0 && k >= j.downFrom {
			recovered = append(recovered, snap.Alerts...)
		}
	}
	// Re-admit. The old recognizer object is simply leaked: a stalled
	// goroutine may still be running against it.
	if s.recognizer != nil {
		s.recognizer = rec
		s.singleDown.Store(partUp)
		s.singleInfo = supervise.Quarantine{}
	} else {
		s.partitions[i].rec = rec
		s.partitions[i].down.Store(partUp)
		s.partitions[i].info = supervise.Quarantine{}
	}
	j.base = rec.Snapshot()
	j.slides = j.slides[:0]
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
	st := s.storeJ.base.Fork()
	for _, sl := range s.storeJ.slides {
		st.Stage(sl.delta)
		if sl.reconstruct {
			st.Load(st.Reconstruct())
		}
	}
	s.store = st
	s.storeDown.Store(partUp)
	s.storeInfo = supervise.Quarantine{}
	s.noteStaged()
	s.rebaseStore()
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
// step, with the partition index (-1 for the single recognizer). Chaos
// tests inject panics and stalls through it; nil uninstalls.
func SetRecognizerFaultHook(fn func(partition int)) {
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
