package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/analytics"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/tracker"
)

// Checkpoint support. The system serializes every stateful pipeline
// stage — tracker vessels, the recognizer's working memory, the
// moving-object store — into one Snapshot the checkpoint subsystem
// frames and persists. Configuration and static world knowledge are not
// serialized: the restoring process builds an identically configured
// System first, then restores dynamic state into it.
//
// Watchdog and fault state (down targets, trip counters) is
// deliberately NOT checkpointed: a restart — or an in-process
// RestoreSnapshot, the rewind after a fault — is exactly the recovery
// action for a wedged target, so the restored system starts with every
// target healthy.

// Typed restore failures, matched with errors.Is.
var (
	// ErrTopologyMismatch means the snapshot's recognizer state does not
	// fit the system restoring it: one was taken with recognition on and
	// the other runs with it off, or the other way round.
	ErrTopologyMismatch = errors.New("core: snapshot recognizer topology does not match this system")
	// ErrWedged means the system has targets out of service — a recognizer
	// abandoned by the watchdog, quarantined tracker shards, a
	// quarantined store — whose state is incomplete or may still be
	// mutating in abandoned goroutines, so a consistent snapshot cannot
	// be taken. A restore replaces the down targets, and Snapshot then
	// succeeds again.
	ErrWedged = errors.New("core: cannot snapshot a system with out-of-service targets")
	// ErrSlideInFlight means a slide has been tracked but not yet
	// processed: the tracker is a slide ahead of everything after it, so
	// no snapshot of the two is consistent until ProcessTracked runs.
	// Checkpoint on a slide boundary that nothing was tracked past.
	ErrSlideInFlight = errors.New("core: cannot snapshot with a tracked slide not yet processed")
)

// Snapshot is the serialized dynamic state of a System. Recognizer is
// the recognizer's state, nil with recognition disabled; Store is the
// MOD's own framed snapshot, kept opaque so its format versioning stays
// with the mod package.
type Snapshot struct {
	Tracker    tracker.Snapshot
	Recognizer *maritime.RecognizerSnapshot
	Store      []byte
	// Analytics is the cross-vessel tier's state; nil when the tier is
	// disabled.
	Analytics *analytics.Snapshot
}

// Snapshot captures the system's complete dynamic state, serialized
// with slides. It fails with ErrWedged when the watchdog has abandoned a
// recognizer, because an abandoned goroutine may still be mutating that
// recognizer's state, and with ErrSlideInFlight between Track (or a
// look-ahead start) and ProcessTracked.
func (s *System) Snapshot() (Snapshot, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.next.set {
		return Snapshot{}, ErrSlideInFlight
	}
	if quar, failed := s.downCounts(); quar+failed > 0 {
		return Snapshot{}, ErrWedged
	}
	if ts := s.tracker.FaultStats(); ts.Quarantined > 0 || ts.Failed > 0 {
		return Snapshot{}, ErrWedged
	}
	snap := Snapshot{Tracker: s.tracker.Snapshot()}
	if s.rec != nil {
		rec := s.rec.Snapshot()
		snap.Recognizer = &rec
	}
	var store bytes.Buffer
	if err := s.store.SaveSnapshot(&store); err != nil {
		return Snapshot{}, fmt.Errorf("core: snapshotting store: %w", err)
	}
	snap.Store = store.Bytes()
	if s.analytics != nil {
		snap.Analytics = s.analytics.Snapshot()
	}
	return snap, nil
}

// RestoreSnapshot replaces the system's dynamic state with a
// snapshot's. The system must be configured identically to the one the
// snapshot was taken from, except for TrackerShards, which may differ
// freely (the tracker encoding is shard-count-independent). A topology
// mismatch or a corrupt embedded store snapshot fails with a typed
// error before any state is replaced. The store restores first, so a
// tracker failure after it leaves the store restored; callers treat a
// failed restore as fatal and fall back to an older checkpoint or a
// cold start. It is serialized with slides; a slide tracked but not yet
// processed is discarded with the state it was tracked against.
func (s *System) RestoreSnapshot(snap Snapshot) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if (snap.Recognizer != nil) != (s.rec != nil) {
		return fmt.Errorf("%w: snapshot recognition on=%t, system on=%t",
			ErrTopologyMismatch, snap.Recognizer != nil, s.rec != nil)
	}
	// A restore supersedes any quarantine or failure: down targets are
	// replaced outright (a wedged goroutine may still be touching the
	// old objects) and re-admitted with the restored state.
	quar, failed := s.downCounts()
	ts := s.tracker.FaultStats()
	replacing := quar+failed+ts.Quarantined+ts.Failed > 0
	if s.storeDown.Load() != partUp {
		s.store = mod.New(s.ports)
	}
	if err := s.store.RestoreSnapshot(bytes.NewReader(snap.Store)); err != nil {
		return err
	}
	if err := s.tracker.RestoreSnapshot(snap.Tracker); err != nil {
		return err
	}
	s.next = trackedSlide{}
	if s.rec != nil {
		if s.recDown.Load() != partUp {
			s.rec = maritime.NewRecognizer(s.cfg.Recognition, s.vessels, s.areas)
		}
		s.rec.RestoreSnapshot(*snap.Recognizer)
		s.recDown.Store(partUp)
	}
	s.storeDown.Store(partUp)
	s.faults, s.faultEvents = nil, 0
	s.noteStaged()
	// Lenient on both sides: a snapshot without analytics state resets
	// the tier, and analytics state restored into a system without the
	// tier is ignored — checkpoints stay portable across the tier being
	// toggled.
	if s.analytics != nil {
		s.analytics.Restore(snap.Analytics)
	}
	if replacing {
		s.restores.Add(1)
	}
	return nil
}
