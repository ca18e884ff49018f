package core

import (
	"sync/atomic"
	"time"

	"repro/internal/maritime"
	"repro/internal/rtec"
)

// Overload-graceful degradation. When the pipeline cannot keep up with
// the stream — slides take longer than the slide period, or ingest
// runs whole slides ahead — the system sheds work in priority order
// instead of falling behind without bound, and climbs back to full
// fidelity once the overload clears. The ladder (paper §5.2 discusses load-dependent
// processing cost; the shedding order keeps the cheap safety-critical
// outputs alive longest):
//
//	L0 DegradeNone              full pipeline
//	L1 DegradeDeferArchival     trajectory reconstruction + loading are
//	                            deferred (staging continues, so nothing
//	                            is lost — the backlog is reconstructed
//	                            when the level drops or at drain)
//	L2 DegradeInstantaneousOnly durative ME demarcations are dropped
//	                            from recognition; instantaneous events
//	                            (turn, speedChange, gap) keep flowing
//	L3 DegradeShedStationary    the tracker drops jitter fixes from
//	                            long-stopped vessels before windowing
//	                            (from the next slide routed, which is
//	                            one slide later when it was tracked
//	                            ahead)
//
// Every transition is counted and exported (Health, /metrics), so an
// operator can tell a degraded-but-coping system from a healthy one.
const (
	DegradeNone = iota
	DegradeDeferArchival
	DegradeInstantaneousOnly
	DegradeShedStationary
)

// DegradeSpec configures the degradation ladder; see the level
// constants for what each rung sheds. The zero value of either trigger
// disables it.
type DegradeSpec struct {
	// SlideHigh is the per-slide wall time (Timings.Wall) above which a
	// slide votes to climb the ladder. Zero disables the latency trigger.
	SlideHigh time.Duration
	// DepthHigh is the ingest-backlog depth above which a slide votes to
	// climb; DepthFunc supplies the current depth (typically
	// stream.IngestStage.Pending: fixes read while a finished slide still
	// waits for the pipeline). Zero / nil disables the backlog trigger.
	DepthHigh int
	DepthFunc func() int
	// EnterAfter and ExitAfter are the hysteresis: that many consecutive
	// overloaded (resp. healthy) slides before moving one level up
	// (resp. down). They default to 2 and 4, so a single slow slide
	// never sheds work and recovery is deliberately more conservative
	// than degradation.
	EnterAfter int
	ExitAfter  int
	// MaxLevel caps the ladder (default DegradeShedStationary, the full
	// ladder).
	MaxLevel int
}

// degrader is the ladder's state machine. The level and transition
// counters are atomics because Health() and /metrics scrape them while
// the pipeline goroutine steps the ladder; hot/cool are touched only by
// the pipeline goroutine.
type degrader struct {
	spec        DegradeSpec
	level       atomic.Int32
	transitions atomic.Int64
	hot, cool   int
}

func newDegrader(spec DegradeSpec) *degrader {
	if spec.EnterAfter <= 0 {
		spec.EnterAfter = 2
	}
	if spec.ExitAfter <= 0 {
		spec.ExitAfter = 4
	}
	if spec.MaxLevel <= 0 || spec.MaxLevel > DegradeShedStationary {
		spec.MaxLevel = DegradeShedStationary
	}
	return &degrader{spec: spec}
}

// Level returns the current rung.
func (d *degrader) Level() int { return int(d.level.Load()) }

// observe folds one finished slide into the ladder and returns the
// (possibly changed) level. At most one rung is climbed or descended
// per slide, and any overloaded slide resets the cool-down (and vice
// versa), so the ladder cannot oscillate on a noisy boundary.
func (d *degrader) observe(slide time.Duration) int {
	over := d.spec.SlideHigh > 0 && slide > d.spec.SlideHigh
	if !over && d.spec.DepthHigh > 0 && d.spec.DepthFunc != nil {
		over = d.spec.DepthFunc() > d.spec.DepthHigh
	}
	lvl := int(d.level.Load())
	if over {
		d.cool = 0
		d.hot++
		if d.hot >= d.spec.EnterAfter && lvl < d.spec.MaxLevel {
			lvl++
			d.hot = 0
			d.level.Store(int32(lvl))
			d.transitions.Add(1)
		}
		return lvl
	}
	d.hot = 0
	if lvl == 0 {
		d.cool = 0
		return 0
	}
	d.cool++
	if d.cool >= d.spec.ExitAfter {
		lvl--
		d.cool = 0
		d.level.Store(int32(lvl))
		d.transitions.Add(1)
	}
	return lvl
}

// DegradationLevel reports the ladder's current rung (DegradeNone when
// no ladder is configured).
func (s *System) DegradationLevel() int {
	if s.degrader == nil {
		return DegradeNone
	}
	return s.degrader.Level()
}

// degradeStep runs the ladder once per slide with the slide's wall
// time, and toggles the tracker-side shedding when the L3 boundary is
// crossed. The tracker reads the toggle when it routes a slide, so with
// the next slide already tracked ahead it takes effect a slide later.
func (s *System) degradeStep(wall time.Duration) {
	old := s.degrader.Level()
	lvl := s.degrader.observe(wall)
	if (lvl >= DegradeShedStationary) != (old >= DegradeShedStationary) {
		s.tracker.SetShedStationary(lvl >= DegradeShedStationary)
	}
}

// durativeDemarcations are the MEs dropped at DegradeInstantaneousOnly:
// they open and close the durative trajectory fluents whose window
// maintenance dominates recognition cost. The instantaneous MEs keep
// flowing so gap/turn/speed alerts survive the shed.
var durativeDemarcations = map[string]bool{
	maritime.MEStopStart: true,
	maritime.MEStopEnd:   true,
	maritime.MESlowStart: true,
	maritime.MESlowEnd:   true,
}

// filterInstantaneous drops the durative demarcations from the ME
// stream, counting each drop. It filters in place: the stream is the
// slide's scratch, which recognition copies into the recognizer's slot.
func (s *System) filterInstantaneous(events []rtec.Event) []rtec.Event {
	out := events[:0]
	for _, ev := range events {
		if durativeDemarcations[ev.Name] {
			s.degradedDrops.Add(1)
			continue
		}
		out = append(out, ev)
	}
	return out
}
