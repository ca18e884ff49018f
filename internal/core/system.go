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
	"cmp"
	"math"
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
	// Processors splits CE recognition geographically across this many
	// parallel recognizers (the paper's §5.2 distributed setting: "One
	// may further distribute CE recognition by dividing further the
	// monitored area"). 0 or 1 runs one band holding every area.
	Processors int
	// TrackerShards splits mobility tracking across this many vessel
	// shards driven concurrently per slide (trajectory detection is
	// independent per vessel, §5.2). 0 picks tracker.DefaultShards; 1
	// runs the exact single-threaded tracker. Output is byte-identical
	// across shard counts.
	TrackerShards int
	// WatchdogTimeout bounds one slide's CE recognition: a recognizer
	// that exceeds it is flagged as wedged and abandoned — its events are
	// dropped (counted in Health) and the slide completes with whatever
	// the healthy recognizers produced, instead of hanging the pipeline.
	// 0 disables the watchdog.
	WatchdogTimeout time.Duration
	// DisableRecognition turns the CE module off, for experiments that
	// time trajectory detection alone.
	DisableRecognition bool
	// DisableArchival turns staging/reconstruction/loading off, for
	// experiments that time online processing alone.
	DisableArchival bool
	// SelfHeal arms the supervision layer: panics in tracker shard
	// workers, the recognizer fan-out and the archival path are recovered
	// into quarantined targets instead of crashing the process,
	// per-target journals are kept, and Heal re-admits a quarantined
	// target by restore-then-replay. Watchdog-wedged recognizers become
	// repairable instead of terminally abandoned.
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
// up to more than the slide took, and they leave out the self-heal
// journaling between them. What the slide cost the pipeline is Wall.
type Timings struct {
	// Tracking is window update + trajectory event detection. For a
	// slide tracked ahead it runs from Start to when the last shard
	// finished (or, if the pipeline waited for it, to the end of the
	// wait), plus the merge.
	Tracking       time.Duration
	Staging        time.Duration // delta points into the staging area
	Reconstruction time.Duration // trip segmentation
	Loading        time.Duration // inserting trips into the store
	Recognition    time.Duration // RTEC query step (routing and journaling included)
	Analytics      time.Duration // cross-vessel pairwise screening
	// Wall is the time the pipeline goroutine spent on the slide, from
	// the window update through the journal re-base (sinks excluded).
	// For a slide tracked ahead that is starting it plus everything from
	// collecting its shards on, less the time spent starting the next
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
}

// System is the assembled pipeline.
type System struct {
	cfg       Config
	tracker   *tracker.Sharded
	store     *mod.MOD
	analytics *analytics.Tier

	// CE recognition: one recognizer per longitude band (Processors of
	// them, or a single band over the whole region), fed the events of
	// vessels inside its band. Empty when recognition is disabled.
	partitions []*partition

	// Per-slide scratch for startPartitions, reused across slides so the
	// fan-out does not allocate per slide. (The alerts slice is NOT
	// scratch: sinks and the gateway retain it.)
	evByPart  [][]rtec.Event
	completed []bool
	snaps     []maritime.Snapshot

	// meScratch backs the slide's movement-event stream. Only routing
	// reads it: recognizers get the events through their evByPart slot.
	meScratch []rtec.Event

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

	// next is the slide between Track (or a look-ahead start) and
	// ProcessTracked. lookahead counts the slides started ahead and
	// trackerWait the time ProcessTracked blocked on their shards; both
	// are loaded by scrapes.
	next        trackedSlide
	lookahead   atomic.Int64
	trackerWait atomic.Int64

	// Degradation state (see Health): watchdog bookkeeping and the
	// drivers' ingest-side health contributions. The counters are
	// atomics because Health() is scraped from HTTP goroutines
	// (/healthz, /metrics) while the pipeline goroutine mutates them
	// mid-slide.
	healthSources      []func() Health
	watchdogTrips      atomic.Int64
	watchdogLostEvents atomic.Int64

	// Self-healing supervision (Config.SelfHeal); see heal.go. The
	// static world knowledge is retained so repairs can build fresh
	// recognizers/stores; journals keep each target's recent input
	// slides for restore-then-replay, re-based every journalEvery slides.
	selfHeal     bool
	journalEvery int
	vessels      []maritime.Vessel
	ports        []mod.PortArea
	recJ         []recJournal
	storeJ       *storeJournal
	storeDown    atomic.Int32
	storeInfo    supervise.Quarantine
	// recovered holds alerts reconstructed by a Heal replay, delivered
	// (sorted in) with the next slide's report.
	recovered       []maritime.Alert
	panicsRecovered atomic.Int64
	restores        atomic.Int64
	journalGaps     atomic.Int64
	degradedDrops   atomic.Int64
	storeHook       atomic.Pointer[func()]

	// Archival and re-base accounting, written by the pipeline goroutine
	// and loaded by scrapes: points awaiting a trip as of the last
	// archival step, points Reconstruct has examined, and time spent
	// re-basing the store's and the recognizers' journals.
	stagedPoints     atomic.Int64
	scannedPoints    atomic.Int64
	rebaseStoreNanos atomic.Int64
	rebaseRecNanos   atomic.Int64

	// Overload degradation ladder (Config.Degrade); see degrade.go.
	degrader *degrader

	// runMu serializes the pipeline's state-mutating entry points
	// (ProcessBatch, Drain, Snapshot, RestoreSnapshot, Heal, Abandon) so
	// a supervisor may repair targets while the stream keeps sliding.
	// onSlideEnd callbacks run after each slide OUTSIDE the lock.
	runMu      sync.Mutex
	onSlideEnd []func(SlideReport)
}

// trackedSlide is a slide whose tracking is done or under way and whose
// processing is not.
type trackedSlide struct {
	set   bool
	ahead bool // started on the tracker's pool; Finish collects it
	fixes int
	res   tracker.SlideResult // when !ahead
	// own is the pipeline goroutine's time on the slide so far: the
	// whole tracking for a slide tracked in place, the start for one
	// tracked ahead (which started at started).
	own     time.Duration
	started time.Time
}

// partition is one longitude band of the monitored region.
type partition struct {
	rec   *maritime.Recognizer
	areas []maritime.Area
	loLon float64 // inclusive lower longitude bound (-Inf for first)
	hiLon float64 // exclusive upper bound (+Inf for last)
	// down marks a partition out of service (partStalled: abandoned by
	// the watchdog, its goroutine may still be running; partPanicked:
	// panic recovered; partFailed: given up). It must never be advanced
	// while down. Atomic because concurrent Health scrapes read it; info
	// describes the quarantine and is guarded by runMu.
	down atomic.Int32
	info supervise.Quarantine
}

// NewSystem wires the pipeline over the given static knowledge. vessels
// and areas feed CE recognition; ports feed trip segmentation. It panics
// when cfg.Recognition.Mode is not maritime.SpatialOnDemand.
func NewSystem(cfg Config, vessels []maritime.Vessel, areas []maritime.Area, ports []mod.PortArea) *System {
	return newSystem(cfg, tracker.DefaultJournalSlides, vessels, areas, ports)
}

// newSystem is NewSystem with the self-heal journals' re-base cadence
// given, so tests can re-base (and hit the retention cap) sooner.
func newSystem(cfg Config, journalEvery int, vessels []maritime.Vessel, areas []maritime.Area, ports []mod.PortArea) *System {
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
		cfg:          cfg,
		tracker:      tracker.NewSharded(cfg.Tracker, cfg.Window, shards),
		store:        mod.New(ports),
		journalEvery: journalEvery,
	}
	if !cfg.DisableRecognition {
		s.buildPartitions(vessels, areas)
	}
	if cfg.Analytics != nil && !cfg.DisableRecognition {
		s.analytics = analytics.New(*cfg.Analytics, PortPolys(ports))
	}
	if cfg.Degrade != nil {
		s.degrader = newDegrader(*cfg.Degrade)
	}
	if cfg.SelfHeal {
		s.initSelfHeal(vessels, ports)
	}
	return s
}

// Close releases the tracker's shard worker pool. Systems are also
// reclaimed by a finalizer, so Close is optional but prompt.
func (s *System) Close() { s.tracker.Close() }

// buildPartitions splits the areas into Processors longitude bands of
// roughly equal area count and builds one recognizer per band. With one
// processor, or no areas to split, it builds a single band over
// (−∞, +∞) holding every area in the order given.
func (s *System) buildPartitions(vessels []maritime.Vessel, areas []maritime.Area) {
	lo := math.Inf(-1)
	add := func(band []maritime.Area, hi float64) {
		s.partitions = append(s.partitions, &partition{
			rec:   maritime.NewRecognizer(s.cfg.Recognition, vessels, band),
			areas: band,
			loLon: lo,
			hiLon: hi,
		})
		lo = hi
	}
	if n := s.cfg.Processors; n <= 1 || len(areas) == 0 {
		add(areas, math.Inf(1))
	} else {
		sorted := append([]maritime.Area(nil), areas...)
		slices.SortFunc(sorted, func(a, b maritime.Area) int {
			return cmp.Compare(a.Poly.Centroid().Lon, b.Poly.Centroid().Lon)
		})
		per := (len(sorted) + n - 1) / n
		for i := 0; i < len(sorted); i += per {
			hi := min(i+per, len(sorted))
			band := sorted[i:hi]
			upper := math.Inf(1)
			if hi < len(sorted) {
				// Split halfway between adjacent band centroids.
				upper = (band[len(band)-1].Poly.Centroid().Lon +
					sorted[hi].Poly.Centroid().Lon) / 2
			}
			add(band, upper)
		}
	}
	// The per-slide fan-out scratch is fixed for the system's lifetime;
	// build it once here instead of per slide.
	np := len(s.partitions)
	s.evByPart = make([][]rtec.Event, np)
	s.completed = make([]bool, np)
	s.snaps = make([]maritime.Snapshot, np)
}

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

// Recognizer exposes the CE recognition component: the recognizer of
// the single band, or nil when recognition is disabled or split across
// several bands.
func (s *System) Recognizer() *maritime.Recognizer {
	if len(s.partitions) != 1 {
		return nil
	}
	return s.partitions[0].rec
}

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
// Heal, ...); OnSlideEnd callbacks run after the slide, outside the
// lock.
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
// ahead, when non-nil, is asked for the next slide once this one's
// tracking is done: a batch it returns is started on the tracker's
// shard pool and tracked while this slide is recognized, archived and
// published, and the next ProcessTracked processes it (no Track). It
// is not asked while a tracker shard is quarantined, so a repair never
// races a slide it would change. Serialized like ProcessBatch.
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
	if cur.ahead {
		var done time.Time
		res, done = s.tracker.Finish()
		end := time.Now()
		// The shards ran beside the previous slide until they were all in
		// or this slide began collecting them; whatever ran on is waited.
		// (A zero done — every shard out of service — ran nothing.)
		if done.IsZero() {
			done = cur.started
		}
		rep.Timings.Tracking += max(earlier(done, begin).Sub(cur.started), 0) + end.Sub(begin)
		if waited := earlier(done, end).Sub(begin); waited > 0 {
			s.trackerWait.Add(int64(waited))
		}
	}
	own := cur.own
	if ahead != nil && s.tracker.FaultStats().Quarantined == 0 {
		if b, ok := ahead(); ok {
			t := time.Now()
			s.tracker.Start(b)
			started := time.Now()
			s.next = trackedSlide{set: true, ahead: true, fixes: len(b.Fixes), own: started.Sub(t), started: started}
			s.lookahead.Add(1)
			// Starting the next slide is the next slide's time.
			own -= s.next.own
		}
	}
	if s.freshObs != nil {
		s.freshObs(res.Query, res.Fresh)
	}
	return s.processLocked(begin, own, rep, res)
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
	// Alerts reconstructed by a Heal replay since the last slide are
	// delivered with this one.
	recovered := s.recovered
	s.recovered = nil

	// The slide result has three consumers that share no state:
	// recognition (fresh points, as movement events), archival (delta
	// points) and analytics (fresh points). Recognition is started first;
	// where it runs on goroutines of its own — under the watchdog, or
	// across several bands — the other two run here beside it until the
	// join.
	var join func() ([]maritime.Alert, time.Duration)
	if len(s.partitions) > 0 {
		t := time.Now()
		s.meScratch = maritime.MEStreamInto(s.meScratch[:0], res.Fresh)
		events := s.meScratch
		if level >= DegradeInstantaneousOnly {
			events = s.filterInstantaneous(events)
		}
		join = s.startPartitions(res.Query, events)
		rep.Timings.Recognition = time.Since(t)
	}

	if !s.cfg.DisableArchival {
		// At DegradeDeferArchival and above, staging continues (nothing
		// is lost) but reconstruction+loading are deferred to a healthier
		// slide or the final drain.
		doReconstruct := level < DegradeDeferArchival
		if s.storeJ != nil {
			s.journalStore(res.Delta, doReconstruct)
		}
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
	if len(recovered) > 0 {
		merged := make([]maritime.Alert, 0, len(recovered)+len(rep.Alerts))
		merged = append(merged, recovered...)
		merged = append(merged, rep.Alerts...)
		slices.SortStableFunc(merged, maritime.CompareAlerts)
		rep.Alerts = merged
	}
	s.rebaseJournals()
	rep.Timings.Wall = own + time.Since(start)
	if s.degrader != nil {
		s.degradeStep(rep.Timings.Wall)
	}
	rep.Health = s.Health()
	if s.metrics != nil {
		s.metrics.observe(rep)
		s.observeDefinitions()
		if s.analytics != nil {
			s.metrics.observeScreens(s.analytics.LastSlideCost())
		}
	}
	s.notifySinks(rep)
	return rep
}

// runArchival stages the slide's delta points and (unless deferred by
// the degradation ladder) reconstructs and loads trips. With SelfHeal a
// panic anywhere in the archival path quarantines the store instead of
// crashing; the journal replays the missed slides on Heal.
func (s *System) runArchival(rep *SlideReport, delta []tracker.CriticalPoint, doReconstruct bool) {
	if s.selfHeal {
		defer func() {
			if r := recover(); r != nil {
				s.quarantineStore(supervise.Panicked("store", r))
			}
		}()
	}
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

// recognizerAdvanceHook is called at the start of every band's
// recognition step with the band index (-1 when there is one band);
// tests install a blocking hook to simulate a wedged recognizer. It is
// atomic because abandoned goroutines may still read it while a test
// tears it down.
var recognizerAdvanceHook atomic.Pointer[func(i int)]

// startPartitions fans the slide's events out to the recognizer of the
// band each vessel is in and starts the bands (the MEs are "forwarded
// to the appropriate processor according to vessel location", paper
// §5.2). Whatever the caller does before calling the returned join runs
// beside the bands; the join collects them under the watchdog and
// yields the alerts and how long the slowest band ran. Bands run on
// goroutines of their own, except a lone band without a watchdog: there
// is nothing to run it beside or to abandon it for, so it runs in place,
// inside the join. With SelfHeal the slide's input is journaled first
// and a panic inside Advance quarantines the band instead of crashing.
func (s *System) startPartitions(q time.Time, events []rtec.Event) func() ([]maritime.Alert, time.Duration) {
	n := len(s.partitions)
	// The routing slots are system-owned scratch reused across slides. A
	// down partition's slot is abandoned to its goroutine at quarantine
	// time (set to nil, never appended to again), so a goroutine that
	// still holds an old slice sees a stable array.
	for i := range s.evByPart {
		s.evByPart[i] = s.evByPart[i][:0]
	}
	for _, ev := range events {
		i := s.partitionOf(ev.Lon)
		if d := s.partitions[i].down.Load(); d != partUp {
			if !s.selfHeal || d == partFailed {
				// No journal will replay it: the event is lost.
				s.watchdogLostEvents.Add(1)
				continue
			}
			// The journal still needs the event: a Heal replay delivers
			// the quarantine window's alerts as recovered.
		}
		s.evByPart[i] = append(s.evByPart[i], ev)
	}
	if s.recJ != nil {
		for i := range s.partitions {
			s.journalRec(i, q, s.evByPart[i])
		}
	}
	// Fan out to the live partitions. Results come back over a buffered
	// channel rather than shared slots so that a goroutine abandoned by
	// the watchdog can still complete without racing a later slide; the
	// channel itself is per-slide for the same reason. Each band takes
	// its event slice by value at launch so later slides may reslice the
	// scratch slots freely. With SelfHeal a panicking band reports a
	// quarantine record instead of crashing.
	type partResult struct {
		i    int
		snap maritime.Snapshot
		qr   *supervise.Quarantine
		ran  time.Duration
	}
	results := make(chan partResult, n)
	advance := func(i int, rec *maritime.Recognizer, evs []rtec.Event) {
		t := time.Now()
		if s.selfHeal {
			defer func() {
				if r := recover(); r != nil {
					qr := supervise.Panicked(s.recTarget(i), r)
					results <- partResult{i: i, qr: &qr, ran: time.Since(t)}
				}
			}()
		}
		if h := recognizerAdvanceHook.Load(); h != nil {
			hi := i
			if n == 1 {
				hi = -1
			}
			(*h)(hi)
		}
		snap := rec.Advance(q, evs, nil)
		results <- partResult{i: i, snap: snap, ran: time.Since(t)}
	}
	var inPlace func()
	active := 0
	launched := time.Now()
	for i, p := range s.partitions {
		s.completed[i] = false
		if p.down.Load() != partUp {
			continue
		}
		active++
		rec, evs := p.rec, s.evByPart[i]
		if n == 1 && s.cfg.WatchdogTimeout <= 0 {
			inPlace = func() { advance(i, rec, evs) }
			continue
		}
		go advance(i, rec, evs)
	}
	var timer *time.Timer
	var timeout <-chan time.Time
	if s.cfg.WatchdogTimeout > 0 {
		timer = time.NewTimer(s.cfg.WatchdogTimeout)
		timeout = timer.C
	}
	return func() ([]maritime.Alert, time.Duration) {
		if timer != nil {
			defer timer.Stop()
		}
		if inPlace != nil {
			inPlace()
		}
		var slowest time.Duration
		collect := func(r partResult) {
			slowest = max(slowest, r.ran)
			if r.qr != nil {
				s.quarantinePartition(r.i, partPanicked, *r.qr)
				return
			}
			s.snaps[r.i] = r.snap
			s.completed[r.i] = true
		}
		for got := 0; got < active; {
			select {
			case r := <-results:
				collect(r)
				got++
			case <-timeout:
				// A result can race the deadline into the select: when the
				// pipeline goroutine is scheduled late — or archival and
				// analytics outlasted the budget — both channels are ready
				// and select picks either. Drain deliveries that beat the
				// deadline before declaring anyone a straggler — a
				// partition that answered in time is not wedged.
				for draining := true; draining && got < active; {
					select {
					case r := <-results:
						collect(r)
						got++
					default:
						draining = false
					}
				}
				if got == active {
					break
				}
				// The slide budget is spent: flag every straggler — still
				// up (a band down at launch stays down: Heal waits for
				// runMu) yet not completed — as wedged and move on with
				// the snapshots that did arrive. With SelfHeal the
				// quarantine is repairable via Heal.
				s.watchdogTrips.Add(1)
				slowest = time.Since(launched)
				for i, p := range s.partitions {
					if !s.completed[i] && p.down.Load() == partUp {
						s.quarantinePartition(i, partStalled, supervise.Stalled(s.recTarget(i)))
					}
				}
				got = active
			}
		}
		var alerts []maritime.Alert
		for i := range s.snaps {
			if s.completed[i] {
				alerts = append(alerts, s.snaps[i].Alerts...)
			}
		}
		slices.SortStableFunc(alerts, maritime.CompareAlerts)
		return alerts, slowest
	}
}

// partitionOf returns the index of the band owning longitude lon.
func (s *System) partitionOf(lon float64) int {
	for i, p := range s.partitions {
		if lon < p.hiLon {
			return i
		}
	}
	return len(s.partitions) - 1
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
	if s.storeJ != nil {
		s.journalStore(res.Delta, true)
	}
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

// RecognizerIntervals returns the maximal intervals of a durative CE
// for an area as of the last slide, or nil when recognition is off.
func (s *System) RecognizerIntervals(ce, areaID string) rtec.IntervalList {
	key := rtec.FluentKey{Fluent: ce, Entity: areaID, Value: rtec.True}
	for _, p := range s.partitions {
		if ivs := p.rec.Engine().HoldsFor(key); ivs != nil {
			return ivs
		}
	}
	return nil
}
