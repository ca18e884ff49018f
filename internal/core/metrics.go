package core

import (
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/obs"
	"repro/internal/stream"
)

// pipelineMetrics is the pipeline's push-side instrumentation: the
// per-stage slide histograms of the paper's Figure 10/11 breakdown plus
// throughput counters, observed once per ProcessBatch.
type pipelineMetrics struct {
	reg *obs.Registry

	tracking       *obs.Histogram
	staging        *obs.Histogram
	reconstruction *obs.Histogram
	loading        *obs.Histogram
	recognition    *obs.Histogram
	analytics      *obs.Histogram
	total          *obs.Histogram

	slides   *obs.Counter
	fixes    *obs.Counter
	critical *obs.Counter
	trips    *obs.Counter
	// alerts holds the per-CE alert counters, each resolved on its CE's
	// first alert: a registry lookup builds and renders a label set, too
	// dear for every alert. Only the pipeline goroutine touches the map.
	alerts map[string]*obs.Counter

	// Stage time hidden behind another stage: per slide, the stage busy
	// times' sum beyond the slide's wall time (recognition beside
	// archival and analytics). Added by the pipeline goroutine, loaded by
	// scrapes.
	overlapNanos atomic.Int64

	// Per-definition recognition time. The engine keeps cumulative
	// readings that only the pipeline goroutine may touch; after each
	// slide it adds what an in-service recognizer spent since its
	// previous reading (defLast, per definition) to atomics a scrape can
	// load at any time.
	defNanos map[string]*atomic.Int64
	defLast  []time.Duration
	// memoryEvents is the events the recognizer's working memory held
	// after the last slide (0 while it is out of service), set alongside
	// the definitions.
	memoryEvents atomic.Int64
	// The engine's per-step work, summed like the definitions: fluent
	// instances derived again and carried forward (index 0 and 1), with
	// the previous reading.
	entities     [2]atomic.Int64
	entitiesLast [2]int

	// Per-screen cost of the pairwise analytics tier, indexed like
	// analytics.Screens: the pipeline goroutine adds each slide's
	// reading, a scrape loads the sums.
	screenNanos [len(analytics.Screens)]atomic.Int64
	screenPairs [len(analytics.Screens)]atomic.Int64
}

// RegisterMetrics wires the system's runtime metrics onto the registry:
// per-stage slide latency histograms, fixes/critical-point/trip/alert
// counters, and the watchdog health counters (sampled from the same
// atomics Health reads). Call it during setup, before the pipeline
// starts sliding; the watchdog metrics stay correct under concurrent
// scrapes because they read only atomics.
func (s *System) RegisterMetrics(r *obs.Registry) {
	stageHelp := "Per-slide busy time of one pipeline stage, in seconds (the paper's Fig. 10 maintenance / Fig. 11 recognition breakdown); stage=total is the slide's measured wall time, not their sum."
	stage := func(name string) *obs.Histogram {
		return r.Histogram("maritime_slide_stage_seconds", stageHelp, obs.Labels{"stage": name}, nil)
	}
	s.metrics = &pipelineMetrics{
		reg:            r,
		alerts:         make(map[string]*obs.Counter),
		tracking:       stage("tracking"),
		staging:        stage("staging"),
		reconstruction: stage("reconstruction"),
		loading:        stage("loading"),
		recognition:    stage("recognition"),
		analytics:      stage("analytics"),
		total:          stage("total"),
		slides:         r.Counter("maritime_slides_total", "Window slides processed.", nil),
		fixes:          r.Counter("maritime_fixes_total", "Position fixes entering the window.", nil),
		critical:       r.Counter("maritime_critical_points_total", "Critical points emitted by the mobility tracker.", nil),
		trips:          r.Counter("maritime_trips_completed_total", "Trips reconstructed and loaded into the store.", nil),
	}
	r.CounterFunc("maritime_slide_overlap_seconds_total",
		"Stage time that cost the slide nothing because it ran beside another stage or, for a slide tracked ahead, beside the previous slide: per slide, the stage busy times' sum minus the slide's wall time, when positive.", nil,
		func() float64 { return float64(s.metrics.overlapNanos.Load()) / 1e9 })
	r.CounterFunc("maritime_pipeline_wait_seconds_total", stream.PipelineWaitHelp,
		obs.Labels{"side": "tracker"}, func() float64 { return float64(s.trackerWait.Load()) / 1e9 })
	r.CounterFunc("maritime_pipeline_lookahead_slides_total",
		"Slides whose tracking was started on the shard pool while the previous slide was still being processed (the next slide was already waiting in the ingest stage).", nil,
		func() float64 { return float64(s.lookahead.Load()) })
	r.CounterFunc("maritime_watchdog_trips_total",
		"Slides on which CE recognition exceeded its budget and was abandoned.", nil,
		func() float64 { return float64(s.watchdogTrips.Load()) })
	r.CounterFunc("maritime_watchdog_lost_events_total",
		"Events dropped because their recognizer was wedged.", nil,
		func() float64 { return float64(s.watchdogLostEvents.Load()) })
	r.GaugeFunc("maritime_recognizer_down",
		"1 while the recognizer is out of service after a watchdog trip or a panic, else 0.", nil,
		func() float64 { return float64(s.recognizerDown()) })
	r.CounterFunc("maritime_panics_recovered_total",
		"Panics in the recognizer or archival path converted into quarantines instead of crashes.", nil,
		func() float64 { return float64(s.panicsRecovered.Load()) })
	r.GaugeFunc("maritime_quarantined_targets",
		"Recognizer and store currently quarantined, out of service until a checkpoint restore replaces them (tracker shards are counted by maritime_tracker_shards_quarantined).", nil,
		func() float64 { q, _ := s.downCounts(); return float64(q) })
	r.GaugeFunc("maritime_failed_targets",
		"Recognizer and store fenced for good after faulting again during the replay of their first fault; out of service until a restart.", nil,
		func() float64 { _, f := s.downCounts(); return float64(f) })
	r.CounterFunc("maritime_restores_total",
		"Checkpoint restores that replaced down targets: rewinds after a fault, each followed by a replay from the checkpoint's cursor.", nil,
		func() float64 { return float64(s.restores.Load()) })
	r.GaugeFunc("maritime_mod_staged_points",
		"Critical points in the store's staging area, not yet part of a reconstructed trip (the paper's Table 4 \"remaining in staging\"), as of the last archival step.", nil,
		func() float64 { return float64(s.stagedPoints.Load()) })
	r.CounterFunc("maritime_mod_reconstruct_scanned_points_total",
		"Staged points trip reconstruction has examined. Healthy archival scans what was staged since the previous slide; a rate near maritime_mod_staged_points per slide means it is rescanning the staging area.", nil,
		func() float64 { return float64(s.scannedPoints.Load()) })
	r.GaugeFunc("maritime_degradation_level",
		"Current rung of the overload degradation ladder (0 = full pipeline).", nil,
		func() float64 { return float64(s.DegradationLevel()) })
	r.CounterFunc("maritime_degradation_transitions_total",
		"Transitions of the overload degradation ladder, in either direction.", nil,
		func() float64 {
			if s.degrader == nil {
				return 0
			}
			return float64(s.degrader.transitions.Load())
		})
	r.CounterFunc("maritime_degraded_dropped_events_total",
		"Durative movement events dropped while recognition ran instantaneous-only.", nil,
		func() float64 { return float64(s.degradedDrops.Load()) })
	if s.rec != nil {
		defs := s.rec.Engine().Stats().Definitions
		s.metrics.defNanos = make(map[string]*atomic.Int64, len(defs))
		s.metrics.defLast = make([]time.Duration, len(defs))
		for _, def := range defs {
			if s.metrics.defNanos[def.Name] != nil {
				continue // definitions sharing a name share a series
			}
			nanos := new(atomic.Int64)
			s.metrics.defNanos[def.Name] = nanos
			r.CounterFunc("maritime_recognition_definition_seconds_total",
				"Time spent evaluating each RTEC definition (input fluent, derived event, fluent): which rule the recognition stage's time goes to.",
				obs.Labels{"definition": def.Name},
				func() float64 { return float64(nanos.Load()) / 1e9 })
		}
		for i, outcome := range [2]string{"evaluated", "carried"} {
			n := &s.metrics.entities[i]
			r.CounterFunc("maritime_recognition_entities_total",
				"Fluent instances the recognizer's query steps derived again (outcome=evaluated) or carried forward untouched (outcome=carried): the incremental engine's work against the window's size.",
				obs.Labels{"outcome": outcome},
				func() float64 { return float64(n.Load()) })
		}
		r.GaugeFunc("maritime_recognition_working_memory_events",
			"Events in the RTEC working memory of the recognizer after the last slide (0 while it is out of service): the window every query step ranges over, so definition seconds can be read per event.", nil,
			func() float64 { return float64(s.metrics.memoryEvents.Load()) })
	}
	if s.analytics != nil {
		for i, screen := range analytics.Screens {
			nanos, pairs := &s.metrics.screenNanos[i], &s.metrics.screenPairs[i]
			r.CounterFunc("maritime_analytics_screen_seconds_total",
				"Time spent in each pairwise screen of the analytics tier (rendezvous pairing, dark-gap linking, CPA collision screening): which screen the analytics stage's time goes to.",
				obs.Labels{"screen": screen},
				func() float64 { return float64(nanos.Load()) / 1e9 })
			r.CounterFunc("maritime_analytics_candidate_pairs_total",
				"Vessel (or gap) pairs each screen's proximity join handed to its pattern test; seconds per pair is the screen's unit cost.",
				obs.Labels{"screen": screen},
				func() float64 { return float64(pairs.Load()) })
		}
	}
	s.tracker.RegisterMetrics(r)
}

// observeDefinitions adds the recognizer's evaluation time since its
// previous reading to the per-definition counters and sets the
// working-memory gauge to its size. A recognizer that is down is
// skipped — an abandoned goroutine may still be inside its engine — and
// one a restore replaced reads from zero again.
func (s *System) observeDefinitions() {
	m := s.metrics
	if s.rec == nil || s.recDown.Load() != partUp {
		m.memoryEvents.Store(0)
		return
	}
	engine := s.rec.Engine()
	m.memoryEvents.Store(int64(engine.WorkingMemorySize()))
	st := engine.Stats()
	for k, v := range [2]int{st.Evaluated, st.Carried} {
		d := v - m.entitiesLast[k]
		if d < 0 {
			d = v
		}
		m.entities[k].Add(int64(d))
		m.entitiesLast[k] = v
	}
	for j, def := range st.Definitions {
		spent := def.Time - m.defLast[j]
		if spent < 0 {
			spent = def.Time
		}
		m.defNanos[def.Name].Add(int64(spent))
		m.defLast[j] = def.Time
	}
}

// observeScreens adds one slide's per-screen analytics cost to the
// counters.
func (m *pipelineMetrics) observeScreens(cost analytics.SlideCost) {
	for i, c := range cost {
		m.screenNanos[i].Add(int64(c.Time))
		m.screenPairs[i].Add(int64(c.Pairs))
	}
}

// observe records one slide's outcome. Alerts count per CE so the
// export matches the per-pattern recognition-cost breakdown of the
// maritime CER literature.
func (m *pipelineMetrics) observe(rep SlideReport) {
	m.tracking.ObserveDuration(rep.Timings.Tracking)
	m.staging.ObserveDuration(rep.Timings.Staging)
	m.reconstruction.ObserveDuration(rep.Timings.Reconstruction)
	m.loading.ObserveDuration(rep.Timings.Loading)
	m.recognition.ObserveDuration(rep.Timings.Recognition)
	m.analytics.ObserveDuration(rep.Timings.Analytics)
	m.total.ObserveDuration(rep.Timings.Wall)
	if over := rep.Timings.busy() - rep.Timings.Wall; over > 0 {
		m.overlapNanos.Add(int64(over))
	}
	m.slides.Inc()
	m.fixes.Add(uint64(rep.FixesIn))
	m.critical.Add(uint64(rep.CriticalPoints))
	m.trips.Add(uint64(rep.TripsCompleted))
	for _, a := range rep.Alerts {
		c := m.alerts[a.CE]
		if c == nil {
			c = m.reg.Counter("maritime_alerts_total", "Complex events recognized, by CE pattern.",
				obs.Labels{"ce": a.CE})
			m.alerts[a.CE] = c
		}
		c.Inc()
	}
}
