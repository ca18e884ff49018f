package core

import (
	"sync/atomic"

	"repro/internal/supervise"
)

// Fault handling. Every stateful target — tracker shards, the
// recognizer, the MOD store — gets the same treatment: a panic or a
// watchdog stall quarantines the target instead of crashing or hanging
// the pipeline, and a down target emits nothing. There is one recovery
// path. A driver that checkpoints (checkpoint.Run) arms RewindOnFault;
// the slide on which a target faults is then withheld from the sinks,
// its report asks for a rewind, and the driver restores the newest
// checkpoint — which replaces every down target with a fresh one — and
// replays the stream from its cursor. Replayed slides that were
// delivered before the fault are marked Replay; the faulted slide is
// delivered when the replay reaches it. A target that faults again
// before the replay is past that slide is fenced as failed and not
// rewound again. Without a rewinding driver a faulted target stays
// quarantined, and what it drops is counted.

// Down-state of the recognizer or the store.
const (
	partUp       = 0
	partStalled  = 1 // watchdog-abandoned; goroutine may still run
	partPanicked = 2 // panic recovered mid-slide
	partFailed   = 3 // fenced for good; out of service until a restore
)

// RewindOnFault arms recovery by rewind (see above). checkpoint.Run
// calls it once a checkpoint to rewind to exists and its ingest can be
// replayed; it must be called between slides.
func (s *System) RewindOnFault() {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.rewind = true
}

// quarantineRecognizer takes the recognizer out of service: its events
// slot is abandoned to whatever goroutine may still hold it, and the
// slide's events are noted as its loss.
func (s *System) quarantineRecognizer(state int32, info supervise.Quarantine) {
	s.recDown.Store(state)
	if state == partPanicked {
		s.panicsRecovered.Add(1)
	}
	s.faults = append(s.faults, info)
	s.faultEvents += len(s.recEvents)
	// The abandoned goroutine may still hold this slide's backing
	// array; never append into it again.
	s.recEvents = nil
}

// quarantineStore takes the archival path out of service.
func (s *System) quarantineStore(info supervise.Quarantine) {
	s.storeDown.Store(partPanicked)
	s.panicsRecovered.Add(1)
	s.faults = append(s.faults, info)
}

// settleFaults decides what becomes of a slide on which targets
// faulted: with rewinds armed and the slide past the last one rewound
// to, the report asks for a rewind and nothing is lost; otherwise the
// slide's losses are counted and, during a replay, the faulted targets
// are fenced as failed. It also marks a replayed slide. Callers hold
// runMu.
func (s *System) settleFaults(rep *SlideReport, lostFixes int) {
	if len(s.faults) > 0 {
		rep.Faults, s.faults = s.faults, nil
		if s.rewind && rep.Query.After(s.rewoundTo) {
			rep.Rewind = true
			s.rewoundTo = rep.Query
		} else {
			if s.rewind {
				s.fence()
			}
			s.watchdogLostEvents.Add(int64(s.faultEvents))
			s.faultFixes.Add(int64(lostFixes))
		}
		s.faultEvents = 0
	}
	rep.Replay = !rep.Rewind && rep.Query.Before(s.rewoundTo)
}

// fence moves every quarantined target to failed.
func (s *System) fence() {
	s.tracker.Fence()
	for _, d := range []*atomic.Int32{&s.recDown, &s.storeDown} {
		if v := d.Load(); v == partStalled || v == partPanicked {
			d.Store(partFailed)
		}
	}
}

// OnSlideEnd registers fn to run after every processed slide — rewound
// and replayed ones included — outside the pipeline lock.
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
