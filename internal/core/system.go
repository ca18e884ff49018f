// Package core assembles the complete maritime surveillance system of
// the paper's Figure 1: the Data Scanner feeds a sliding window whose
// slides drive the Mobility Tracker and Compressor; fresh critical
// points go to complex event recognition (RTEC with the maritime CE
// definitions); expired "delta" points go through the staging area into
// trajectory reconstruction and loading in the moving-object store.
// Per-slide timings of every stage are collected for the performance
// experiments.
package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/geo"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/rtec"
	"repro/internal/stream"
	"repro/internal/supervise"
	"repro/internal/tracker"
)

// Config assembles the system configuration.
type Config struct {
	// Window is the sliding window driving both trajectory detection and
	// CE recognition (ω and β).
	Window stream.WindowSpec
	// Tracker holds the mobility tracking parameters (paper Table 3).
	Tracker tracker.Params
	// Recognition configures the CE module; its Window defaults to the
	// system window range. Its Mode must be maritime.SpatialOnDemand:
	// the pipeline generates no precomputed spatial facts (that mode is
	// an experiment, see internal/expbench).
	Recognition maritime.Config
	// TrackerShards splits mobility tracking across this many vessel
	// shards driven concurrently per slide (trajectory detection is
	// independent per vessel, §5.2). 0 picks tracker.DefaultShards; 1
	// runs the exact single-threaded tracker. Output is byte-identical
	// across shard counts.
	TrackerShards int
	// WatchdogTimeout bounds one slide's CE recognition and each tracker
	// shard's slide: a recognizer or shard that exceeds it is quarantined
	// as wedged and abandoned, and the slide completes without it instead
	// of hanging the pipeline (see faults.go for what happens next). 0
	// disables the watchdog.
	WatchdogTimeout time.Duration
	// DisableRecognition turns the CE module off, for experiments that
	// time trajectory detection alone.
	DisableRecognition bool
	// DisableArchival turns staging/reconstruction/loading off, for
	// experiments that time online processing alone.
	DisableArchival bool
	// SelfHeal is kept so that configurations written against the
	// removed in-memory repair journals still compile; it has no effect.
	// Panics are always recovered into quarantines, and recovery is a
	// checkpoint restore and replay (faults.go).
	SelfHeal bool
	// Degrade configures the overload degradation ladder (see
	// DegradeSpec); nil disables it.
	Degrade *DegradeSpec
	// Analytics arms the cross-vessel analytics tier (rendezvous, dark
	// gap linking, CPA collision screening) over each slide's merged
	// critical points; nil disables it. Ignored when DisableRecognition
	// is set — in a cluster the workers disable recognition and the
	// coordinator runs the tier post-merge, so pairwise events stay
	// byte-identical with a single-process run.
	Analytics *analytics.Config
}

// Timings breaks one slide's processing cost into the stages of the
// paper's Figure 10 plus CE recognition. The stage fields are busy
// times: recognition runs beside archival and analytics, and a slide
// tracked ahead was tracked beside the previous slide, so they can add
// up to more than the slide took. What the slide cost the pipeline is
// Wall.
type Timings struct {
	// Tracking is window update + trajectory event detection. For a
	// slide tracked ahead it runs from when it was routed to when its
	// last shard finished (or, if the pipeline waited for it, to the end
	// of the wait), plus the merge.
	Tracking       time.Duration
	Staging        time.Duration // delta points into the staging area
	Reconstruction time.Duration // trip segmentation
	Loading        time.Duration // inserting trips into the store
	Recognition    time.Duration // RTEC query step (movement-event routing included)
	Analytics      time.Duration // cross-vessel pairwise screening
	// Wall is the time the pipeline goroutine spent on the slide, from
	// the window update through the join of its stages (sinks excluded).
	// For a slide tracked ahead that is routing it plus everything from
	// collecting its shards on, less the time spent routing the next
	// slide: the time it was tracked beside the previous slide is not
	// its own, so the slides' Walls never add up to more than the run.
	Wall time.Duration
}

// busy returns the summed stage busy times.
func (t Timings) busy() time.Duration {
	return t.Tracking + t.Staging + t.Reconstruction + t.Loading + t.Recognition + t.Analytics
}

// SlideReport is the outcome of processing one window slide.
type SlideReport struct {
	Query          time.Time
	FixesIn        int
	CriticalPoints int
	TripsCompleted int
	Alerts         []maritime.Alert
	Timings        Timings
	// Health is the degradation snapshot as of this slide (cumulative
	// counters, not per-slide deltas).
	Health Health
	// Faults holds the quarantine records of the targets that faulted
	// during this slide; empty on a healthy slide.
	Faults []supervise.Quarantine
	// Rewind reports that targets faulted during this slide and the
	// system rewinds on faults (RewindOnFault): the slide reached no
	// sink, and the driver is to restore its newest checkpoint and replay
	// from there. Replay marks a slide the replay processes again that
	// the sinks already had before the fault; sinks that are not keyed by
	// sequence skip it.
	Rewind bool
	Replay bool
}

// System is the assembled pipeline.
type System struct {
	cfg       Config
	tracker   *tracker.Sharded
	store     *mod.MOD
	analytics *analytics.Tier

	// CE recognition: one recognizer over every area, nil when
	// recognition is disabled. recDown marks it out of service
	// (partStalled: abandoned by the watchdog, its goroutine may still be
	// running; partPanicked: panic recovered; partFailed: fenced); it
	// must never be advanced while down. Atomic because concurrent Health
	// scrapes read it.
	rec     *maritime.Recognizer
	recDown atomic.Int32

	// The static world knowledge, kept so that a restore can replace a
	// down recognizer or store with a fresh one.
	vessels []maritime.Vessel
	areas   []maritime.Area
	ports   []mod.PortArea

	// meScratch backs the slide's movement-event stream and recEvents
	// the recognizer's copy of it, both reused across slides. A step on
	// its own goroutine reads only recEvents, which quarantine abandons
	// to it (sets to nil, never appended to again), so a goroutine the
	// watchdog left behind never sees a later slide's events.
	meScratch []rtec.Event
	recEvents []rtec.Event

	// Registered alert consumers, notified after every slide.
	sinks []AlertSink

	// freshObs, when set, receives every slide's fresh critical points
	// before recognition — the tap a cluster worker uses to ship its
	// slice's trajectory events upstream. The slice is only valid for
	// the duration of the call; observers must copy what they keep.
	freshObs func(q time.Time, fresh []tracker.CriticalPoint)

	// Optional metrics wiring (RegisterMetrics); nil leaves the hot path
	// untouched.
	metrics *pipelineMetrics

	// next is the slide between Track (or a look-ahead roll) and
	// ProcessTracked. lookahead counts the slides rolled in ahead and
	// trackerWait the time ProcessTracked blocked on their shards; both
	// are loaded by scrapes.
	next        trackedSlide
	lookahead   atomic.Int64
	trackerWait atomic.Int64

	// Degradation state (see Health): watchdog bookkeeping and the
	// drivers' ingest-side health contributions. The counters are
	// atomics because Health() is scraped from HTTP goroutines
	// (/healthz, /metrics) while the pipeline goroutine mutates them
	// mid-slide; the sources are copied on write for the same reason.
	healthSources      atomic.Pointer[[]func() Health]
	watchdogTrips      atomic.Int64
	watchdogLostEvents atomic.Int64

	// Fault handling (faults.go): the store's down-state, the slide's
	// quarantine records and lost events until settleFaults, whether the
	// driver rewinds on faults and the last slide it rewound to, and the
	// fault counters.
	storeDown       atomic.Int32
	faults          []supervise.Quarantine
	faultEvents     int
	rewind          bool
	rewoundTo       time.Time
	faultFixes      atomic.Int64
	panicsRecovered atomic.Int64
	restores        atomic.Int64
	degradedDrops   atomic.Int64
	storeHook       atomic.Pointer[func()]

	// Archival accounting, written by the pipeline goroutine and loaded
	// by scrapes: points awaiting a trip as of the last archival step,
	// and points Reconstruct has examined.
	stagedPoints  atomic.Int64
	scannedPoints atomic.Int64

	// Overload degradation ladder (Config.Degrade); see degrade.go.
	degrader *degrader

	// runMu serializes the pipeline's state-mutating entry points
	// (ProcessBatch, Drain, Snapshot, RestoreSnapshot, ...). onSlideEnd
	// callbacks run after each slide outside the lock.
	runMu      sync.Mutex
	onSlideEnd []func(SlideReport)
}

// trackedSlide is a slide whose tracking is done or under way and whose
// processing is not.
type trackedSlide struct {
	set   bool
	ahead bool // rolled in on the tracker's pool; the next Roll collects it
	fixes int
	res   tracker.SlideResult // when !ahead
	// own is the pipeline goroutine's time on the slide so far: the
	// whole tracking for a slide tracked in place, the routing for one
	// tracked ahead (which was routed by started).
	own     time.Duration
	started time.Time
}

// NewSystem wires the pipeline over the given static knowledge. vessels
// and areas feed CE recognition; ports feed trip segmentation. It panics
// when cfg.Recognition.Mode is not maritime.SpatialOnDemand.
func NewSystem(cfg Config, vessels []maritime.Vessel, areas []maritime.Area, ports []mod.PortArea) *System {
	if cfg.Recognition.Mode != maritime.SpatialOnDemand {
		// Without a fact generator that mode would silently recognize
		// nothing spatial.
		panic("core: the pipeline recognizes with maritime.SpatialOnDemand only")
	}
	if cfg.Recognition.Window <= 0 {
		cfg.Recognition.Window = cfg.Window.Range
	}
	shards := cfg.TrackerShards
	if shards == 0 {
		shards = tracker.DefaultShards()
	}
	s := &System{
		cfg:     cfg,
		tracker: tracker.NewSharded(cfg.Tracker, cfg.Window, shards),
		store:   mod.New(ports),
		vessels: vessels,
		areas:   areas,
		ports:   ports,
	}
	if cfg.WatchdogTimeout > 0 {
		s.tracker.SetSlideTimeout(cfg.WatchdogTimeout)
	}
	if !cfg.DisableRecognition {
		s.rec = maritime.NewRecognizer(cfg.Recognition, vessels, areas)
	}
	if cfg.Analytics != nil && !cfg.DisableRecognition {
		s.analytics = analytics.New(*cfg.Analytics, PortPolys(ports))
	}
	if cfg.Degrade != nil {
		s.degrader = newDegrader(*cfg.Degrade)
	}
	return s
}

// Close releases the tracker's shard worker pool. Systems are also
// reclaimed by a finalizer, so Close is optional but prompt.
func (s *System) Close() { s.tracker.Close() }

// SetFreshObserver installs a tap receiving each slide's fresh critical
// points right after trajectory detection, before recognition. A
// cluster worker uses it to stream its vessel slice's events to the
// coordinator. The slice passed to fn is tracker-owned scratch, valid
// only for the duration of the call. Must be set before processing
// starts; it is not guarded by runMu.
func (s *System) SetFreshObserver(fn func(q time.Time, fresh []tracker.CriticalPoint)) {
	s.freshObs = fn
}

// Tracker exposes the trajectory detection component.
func (s *System) Tracker() *tracker.Sharded { return s.tracker }

// Recognizer exposes the CE recognition component, or nil when
// recognition is disabled.
func (s *System) Recognizer() *maritime.Recognizer { return s.rec }

// Store exposes the moving-object store.
func (s *System) Store() *mod.MOD { return s.store }

// Analytics exposes the cross-vessel analytics tier (nil when disabled).
func (s *System) Analytics() *analytics.Tier { return s.analytics }

// PortPolys extracts the port polygons the analytics tier uses to
// suppress in-harbor rendezvous pairs.
func PortPolys(ports []mod.PortArea) []*geo.Polygon {
	out := make([]*geo.Polygon, 0, len(ports))
	for _, p := range ports {
		out = append(out, p.Poly)
	}
	return out
}

// ProcessBatch runs one window slide through the full pipeline and
// reports what happened, with per-stage timings: Track and
// ProcessTracked back to back, under one hold of the lock. Slides are
// serialized with the other state-mutating entry points (Snapshot,
// RestoreSnapshot, ...); OnSlideEnd callbacks run after the slide,
// outside the lock.
func (s *System) ProcessBatch(b stream.Batch) SlideReport {
	s.runMu.Lock()
	s.trackLocked(b)
	return s.endSlide(s.processTrackedLocked(nil))
}

// Track runs trajectory detection over b, for the next ProcessTracked
// to process. It panics when a tracked slide is still waiting for
// ProcessTracked.
func (s *System) Track(b stream.Batch) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.trackLocked(b)
}

func (s *System) trackLocked(b stream.Batch) {
	if s.next.set {
		panic("core: a tracked slide has not been processed")
	}
	start := time.Now()
	res := s.tracker.Slide(b)
	s.next = trackedSlide{set: true, fixes: len(b.Fixes), res: res, own: time.Since(start)}
}

// ProcessTracked runs the tracked slide — from Track, or started ahead
// by the previous ProcessTracked — through the rest of the pipeline.
// ahead, when non-nil, is asked for the next slide before this one's
// shards are collected: a batch it returns is rolled in on the
// tracker's shard pool (tracker.Sharded.Roll), each shard taking it up
// as soon as it is done with this slide, and tracked while this slide
// is merged, recognized, archived and published; the next
// ProcessTracked processes it (no Track). It is not asked while a
// tracker shard is quarantined: that slide is rewound or fenced, and
// the slide after it would be tracked against the state the fault left
// behind. A shard that faults in this slide is not handed the next
// one. Serialized like ProcessBatch.
func (s *System) ProcessTracked(ahead func() (stream.Batch, bool)) SlideReport {
	s.runMu.Lock()
	return s.endSlide(s.processTrackedLocked(ahead))
}

func (s *System) processTrackedLocked(ahead func() (stream.Batch, bool)) SlideReport {
	cur := s.next
	if !cur.set {
		panic("core: ProcessTracked without a tracked slide")
	}
	s.next = trackedSlide{}
	begin := time.Now()
	rep := SlideReport{FixesIn: cur.fixes}
	res := cur.res
	rep.Timings.Tracking = cur.own
	own := cur.own
	next, ok := s.askAhead(ahead)
	if cur.ahead {
		var rolled *stream.Batch
		if ok {
			rolled = &next
		}
		t := time.Now()
		r, done, collecting := s.tracker.Roll(rolled)
		end := time.Now()
		res = r
		// The shards ran beside the previous slide until they were all in
		// or this slide began collecting them; whatever ran on is waited.
		// (A zero done — every shard out of service — ran nothing.)
		if done.IsZero() {
			done = cur.started
		}
		rep.Timings.Tracking += max(earlier(done, collecting).Sub(cur.started), 0) + end.Sub(collecting)
		if waited := earlier(done, end).Sub(collecting); waited > 0 {
			s.trackerWait.Add(int64(waited))
		}
		if ok {
			own -= s.rolledAhead(len(next.Fixes), t, collecting)
		} else if next, ok = s.askAhead(ahead); ok {
			// Nothing was waiting when collection began; the ingest stage
			// has finished the next slide since.
			own -= s.startAhead(next)
		}
	} else if ok {
		own -= s.startAhead(next)
	}
	if s.freshObs != nil {
		s.freshObs(res.Query, res.Fresh)
	}
	return s.processLocked(begin, own, rep, res)
}

// askAhead asks ahead, if any, for the next slide, unless a tracker
// shard is quarantined.
func (s *System) askAhead(ahead func() (stream.Batch, bool)) (stream.Batch, bool) {
	if ahead == nil || s.tracker.FaultStats().Quarantined != 0 {
		return stream.Batch{}, false
	}
	return ahead()
}

// startAhead starts b on the tracker's pool, with no slide in flight,
// as the slide tracked ahead, and returns the time routing it took.
func (s *System) startAhead(b stream.Batch) time.Duration {
	t := time.Now()
	_, _, routed := s.tracker.Roll(&b)
	return s.rolledAhead(len(b.Fixes), t, routed)
}

// rolledAhead records the slide of fixes fixes, routed between t and
// routed, as the slide tracked ahead, and returns the routing time: the
// next slide's, not this one's.
func (s *System) rolledAhead(fixes int, t, routed time.Time) time.Duration {
	s.next = trackedSlide{set: true, ahead: true, fixes: fixes, own: routed.Sub(t), started: routed}
	s.lookahead.Add(1)
	return s.next.own
}

// earlier returns the earlier of two instants.
func earlier(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// ProcessSlide runs the stages after trajectory detection — CE
// recognition, archival of the delta points and the analytics tier —
// over one slide's critical points, as if the system's own tracker had
// produced them. A cluster coordinator feeds it the merged slides of its
// workers. The report's FixesIn and Tracking time are zero: no fix went
// through this system's tracker. It is serialized with the other
// state-mutating entry points like ProcessBatch.
func (s *System) ProcessSlide(res tracker.SlideResult) SlideReport {
	s.runMu.Lock()
	return s.endSlide(s.processLocked(time.Now(), 0, SlideReport{}, res))
}

// endSlide releases runMu, taken by the caller, and runs the OnSlideEnd
// callbacks outside it.
func (s *System) endSlide(rep SlideReport) SlideReport {
	cbs := s.onSlideEnd
	s.runMu.Unlock()
	for _, fn := range cbs {
		fn(rep)
	}
	return rep
}

// processLocked is one slide from the tracker seam on, completing
// rep (FixesIn and Tracking filled in by the caller). The slide's Wall
// time is own plus the time since start.
func (s *System) processLocked(start time.Time, own time.Duration, rep SlideReport, res tracker.SlideResult) SlideReport {
	rep.Query, rep.CriticalPoints = res.Query, len(res.Fresh)
	level := DegradeNone
	if s.degrader != nil {
		level = s.degrader.Level()
	}
	s.faults = append(s.faults, res.Faults...)

	// The slide result has three consumers that share no state:
	// recognition (fresh points, as movement events), archival (delta
	// points) and analytics (fresh points). Recognition is started first;
	// where it runs on a goroutine of its own — under the watchdog — the
	// other two run here beside it until the join.
	var join func() ([]maritime.Alert, time.Duration)
	if s.rec != nil {
		t := time.Now()
		s.meScratch = maritime.MEStreamInto(s.meScratch[:0], res.Fresh)
		events := s.meScratch
		if level >= DegradeInstantaneousOnly {
			events = s.filterInstantaneous(events)
		}
		join = s.startRecognition(res.Query, events)
		rep.Timings.Recognition = time.Since(t)
	}

	if !s.cfg.DisableArchival {
		// At DegradeDeferArchival and above, staging continues (nothing
		// is lost) but reconstruction+loading are deferred to a healthier
		// slide or the final drain.
		doReconstruct := level < DegradeDeferArchival
		if s.storeDown.Load() == partUp {
			s.runArchival(&rep, res.Delta, doReconstruct)
		}
	}
	var pair []maritime.Alert
	if s.analytics != nil {
		t := time.Now()
		pair = s.analytics.Slide(res.Query, res.Fresh)
		rep.Timings.Analytics = time.Since(t)
	}

	if join != nil {
		alerts, ran := join()
		rep.Alerts = alerts
		rep.Timings.Recognition += ran
	}
	if len(pair) > 0 {
		// Recognition alerts are already in canonical order; append
		// the pairwise ones and stable re-sort so ties keep their
		// emission order.
		rep.Alerts = append(rep.Alerts, pair...)
		slices.SortStableFunc(rep.Alerts, maritime.CompareAlerts)
	}
	s.settleFaults(&rep, res.LostFixes)
	rep.Timings.Wall = own + time.Since(start)
	if s.degrader != nil {
		s.degradeStep(rep.Timings.Wall)
	}
	rep.Health = s.Health()
	if s.metrics != nil {
		if !rep.Rewind && !rep.Replay {
			s.metrics.observe(rep)
		}
		s.observeDefinitions()
		if s.analytics != nil {
			s.metrics.observeScreens(s.analytics.LastSlideCost())
		}
	}
	if !rep.Rewind {
		s.notifySinks(rep)
	}
	return rep
}

// runArchival stages the slide's delta points and (unless deferred by
// the degradation ladder) reconstructs and loads trips. A panic anywhere
// in the archival path quarantines the store instead of crashing.
func (s *System) runArchival(rep *SlideReport, delta []tracker.CriticalPoint, doReconstruct bool) {
	defer func() {
		if r := recover(); r != nil {
			s.quarantineStore(supervise.Panicked("store", r))
		}
	}()
	t := time.Now()
	if h := s.storeHook.Load(); h != nil {
		(*h)()
	}
	s.store.Stage(delta)
	rep.Timings.Staging = time.Since(t)
	defer s.noteStaged()
	if !doReconstruct {
		return
	}
	t = time.Now()
	scanned := s.store.ScannedPoints()
	trips := s.store.Reconstruct()
	s.scannedPoints.Add(int64(s.store.ScannedPoints() - scanned))
	rep.Timings.Reconstruction = time.Since(t)

	t = time.Now()
	s.store.Load(trips)
	rep.Timings.Loading = time.Since(t)
	rep.TripsCompleted = len(trips)
}

// noteStaged publishes the store's staged-point count for scrapes.
func (s *System) noteStaged() { s.stagedPoints.Store(int64(s.store.StagedCount())) }

// recognizerAdvanceHook is called at the start of every recognition
// step; tests install a blocking hook to simulate a wedged recognizer. It
// is atomic because abandoned goroutines may still read it while a test
// tears it down.
var recognizerAdvanceHook atomic.Pointer[func()]

// recResult is one recognition step's outcome: the snapshot, or the
// quarantine record of a panic, and how long it ran.
type recResult struct {
	snap maritime.Snapshot
	qr   *supervise.Quarantine
	ran  time.Duration
}

// noRecognition is the join of a slide the recognizer sits out.
func noRecognition() ([]maritime.Alert, time.Duration) { return nil, 0 }

// startRecognition starts the recognizer's step over the slide's
// movement events. Whatever the caller does before calling the returned
// join runs beside the step; the join collects it under the watchdog
// and yields the alerts and how long the step ran. Under a watchdog the
// step runs on a goroutine of its own, which the watchdog can abandon;
// without one there is nothing to abandon it for, so it runs in place,
// inside the join. A panic inside Advance quarantines the recognizer
// instead of crashing.
func (s *System) startRecognition(q time.Time, events []rtec.Event) func() ([]maritime.Alert, time.Duration) {
	if s.recDown.Load() != partUp {
		// A down recognizer emits nothing: the events are lost.
		s.watchdogLostEvents.Add(int64(len(events)))
		return noRecognition
	}
	s.recEvents = append(s.recEvents[:0], events...)
	// The step reports over a per-slide buffered channel, so a goroutine
	// abandoned by the watchdog can still complete without racing a
	// later slide. It takes the recognizer and its events by value at
	// launch.
	results := make(chan recResult, 1)
	rec, evs := s.rec, s.recEvents
	advance := func() {
		t := time.Now()
		defer func() {
			if r := recover(); r != nil {
				qr := supervise.Panicked("recognizer", r)
				results <- recResult{qr: &qr, ran: time.Since(t)}
			}
		}()
		if h := recognizerAdvanceHook.Load(); h != nil {
			(*h)()
		}
		snap := rec.Advance(q, evs, nil)
		results <- recResult{snap: snap, ran: time.Since(t)}
	}
	collect := func(r recResult) ([]maritime.Alert, time.Duration) {
		if r.qr != nil {
			s.quarantineRecognizer(partPanicked, *r.qr)
			return nil, r.ran
		}
		return r.snap.Alerts, r.ran
	}
	if s.cfg.WatchdogTimeout <= 0 {
		return func() ([]maritime.Alert, time.Duration) {
			advance()
			return collect(<-results)
		}
	}
	launched := time.Now()
	go advance()
	timer := time.NewTimer(s.cfg.WatchdogTimeout)
	return func() ([]maritime.Alert, time.Duration) {
		defer timer.Stop()
		select {
		case r := <-results:
			return collect(r)
		case <-timer.C:
		}
		// A result can race the deadline into the select: when the
		// pipeline goroutine is scheduled late — or archival and analytics
		// outlasted the budget — both channels are ready and select picks
		// either. A step that answered in time is not wedged.
		select {
		case r := <-results:
			return collect(r)
		default:
		}
		// The slide budget is spent: flag the recognizer as wedged and move
		// on without its alerts.
		s.watchdogTrips.Add(1)
		s.quarantineRecognizer(partStalled, supervise.Stalled("recognizer"))
		return nil, time.Since(launched)
	}
}

// Drain stages whatever is left in the tracker's window into the store
// and reconstructs, for end-of-stream statistics (the paper computes
// Table 4 "after the input stream was exhausted"). It advances the
// window far past the last query time so every synopsis expires.
func (s *System) Drain(last time.Time) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	res := s.tracker.Slide(stream.Batch{Query: last.Add(10 * s.cfg.Window.Range)})
	if s.cfg.DisableArchival {
		return
	}
	// The drain always reconstructs, regardless of the degradation
	// ladder: end-of-stream statistics must cover the whole stream.
	if s.storeDown.Load() != partUp {
		return
	}
	var rep SlideReport
	s.runArchival(&rep, res.Delta, true)
}

// RunAll replays an entire batched stream through the system, returning
// every slide report. It is the offline driver used by the examples and
// the experiment harness.
func (s *System) RunAll(batches interface{ Next() (stream.Batch, bool) }) []SlideReport {
	var reports []SlideReport
	var last time.Time
	for {
		b, ok := batches.Next()
		if !ok {
			break
		}
		reports = append(reports, s.ProcessBatch(b))
		last = b.Query
	}
	if !last.IsZero() {
		s.Drain(last)
	}
	return reports
}
