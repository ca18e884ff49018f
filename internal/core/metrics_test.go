package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/fleetsim"
	"repro/internal/obs"
	"repro/internal/stream"
)

// TestHealthScrapeConcurrentWithProcessBatch is the regression test for
// the watchdog-counter data race: Health() used to read plain ints that
// advancePartitions mutates mid-slide, so the first concurrent metrics
// scrape was undefined behavior. Run under -race (CI does) this fails
// loudly if the counters ever regress to unsynchronized fields. The
// hook wedges partition 0 so the run exercises the mutation paths —
// trips, lost events and wedged flags — while scrapers hammer Health.
// The analytics tier is armed so the same scrapes also race the
// pipeline goroutine's per-slide adds into the per-screen and overlap
// counters, and the stream arrives through an ingest stage on the same
// registry so they race both sides' adds into its wait counters too.
func TestHealthScrapeConcurrentWithProcessBatch(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	// Band 1 holds its step open until archival has begun and then for
	// a moment beside it, so the slide's stages overlap even when the
	// scrapers leave the pipeline a single core: without it the band's
	// goroutine may only be scheduled once the caller blocks in the join.
	archiving := make(chan struct{}, 1)
	hook := func(i int) {
		switch i {
		case 0:
			<-release
		case 1:
			select {
			case <-archiving:
			case <-time.After(100 * time.Millisecond):
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	recognizerAdvanceHook.Store(&hook)
	defer recognizerAdvanceHook.Store(nil)

	sim := fleetsim.NewSimulator(simConfig(100, 3))
	fixes := sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	// The budget must be generous: under -race on a small machine the
	// four busy-loop scrapers can starve the healthy partition's
	// goroutine for tens of milliseconds, and only the hook-blocked
	// partition may trip the watchdog.
	cfg := wedgeableConfig(500 * time.Millisecond)
	cfg.Analytics = &analytics.Config{EnableCollision: true}
	sys := NewSystem(cfg, vessels, areas, ports)
	sys.SetStoreFaultHook(func() {
		select {
		case archiving <- struct{}{}:
		default:
		}
		time.Sleep(2 * time.Millisecond)
	})
	reg := obs.NewRegistry()
	sys.RegisterMetrics(reg)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := sys.Health()
				if h.WedgedPartitions < 0 {
					t.Error("negative wedged count")
					return
				}
				var b strings.Builder
				_ = reg.WriteText(&b)
			}
		}()
	}

	stage := stream.NewIngestStage(stream.NewBatcher(stream.NewSliceSource(fixes), 10*time.Minute), 0)
	defer stage.Close()
	stage.RegisterMetrics(reg)
	for {
		b, ok := stage.Next()
		if !ok {
			break
		}
		sys.ProcessBatch(b)
		stage.Recycle(b)
	}
	close(stop)
	scrapers.Wait()

	h := sys.Health()
	if h.WatchdogTrips != 1 || h.WedgedPartitions != 1 {
		t.Errorf("health after wedged run = %+v, want 1 trip / 1 wedged", h)
	}

	// Where the analytics stage's time goes: one series per screen,
	// together no more than the stage they are part of.
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	scraped := func(series string) float64 { return scrapedValue(t, out, series) }
	var screenSeconds, pairs float64
	for _, screen := range analytics.Screens {
		screenSeconds += scraped(`maritime_analytics_screen_seconds_total{screen="` + screen + `"}`)
		pairs += scraped(`maritime_analytics_candidate_pairs_total{screen="` + screen + `"}`)
	}
	if pairs == 0 {
		t.Error("a 100-vessel fleet gave the screens no candidate pair")
	}
	hist := reg.Histogram("maritime_slide_stage_seconds", "", obs.Labels{"stage": "analytics"}, nil)
	if hist.Count() == 0 || screenSeconds <= 0 || screenSeconds > hist.Sum() {
		t.Errorf("screens account for %.6fs, the analytics stage took %.6fs over %d slides",
			screenSeconds, hist.Sum(), hist.Count())
	}
	// Which side waited: an in-memory source outruns the pipeline (which
	// sat out a 500 ms watchdog on the wedged slide), so ingest did.
	if w := scraped(`maritime_pipeline_wait_seconds_total{side="ingest"}`); w <= 0 {
		t.Errorf("ingest side waited %.6fs behind a pipeline that stalled 500 ms", w)
	}
	scraped(`maritime_pipeline_wait_seconds_total{side="pipeline"}`)
	// Both bands ran beside archival and analytics on every slide.
	if v := scraped("\nmaritime_slide_overlap_seconds_total"); v <= 0 {
		t.Errorf("overlap = %.6fs with recognition on its own goroutines", v)
	}
	// The window a step ranges over: the in-service band's working
	// memory — the wedged band is out of service and not counted.
	held := 0
	for i := range sys.partitions {
		if sys.recDown(i) == partUp {
			held += sys.recAt(i).Engine().WorkingMemorySize()
		}
	}
	if v := scraped("\nmaritime_recognition_working_memory_events"); v != float64(held) || held == 0 {
		t.Errorf("working-memory gauge = %v, the in-service recognizers hold %d events", v, held)
	}
}

// scrapedValue reads one series' value out of a text exposition; series
// is matched as written, so lead it with "\n" when it is a suffix of
// another series' name.
func scrapedValue(t *testing.T, out, series string) (v float64) {
	t.Helper()
	if i := strings.Index(out, series+" "); i < 0 {
		t.Errorf("scrape missing %s", series)
	} else if _, err := fmt.Sscan(out[i+len(series)+1:], &v); err != nil {
		t.Errorf("%s: %v", series, err)
	}
	return v
}

// TestPartitionOfBoundaries pins the band-ownership rule: bounds are
// half-open [lo, hi), a longitude west of band 0 belongs to band 0
// (its lower bound is -Inf), a longitude exactly on a band edge belongs
// to the band east of it, and anything east of every finite bound falls
// back to the last band.
func TestPartitionOfBoundaries(t *testing.T) {
	s := &System{partitions: []*partition{
		{loLon: math.Inf(-1), hiLon: -5},
		{loLon: -5, hiLon: 10},
		{loLon: 10, hiLon: math.Inf(1)},
	}}
	cases := []struct {
		lon  float64
		want int
	}{
		{-180, 0}, // far west of band 0
		{-5.001, 0},
		{-5, 1}, // exactly on the first edge: east band owns it
		{0, 1},
		{10, 2}, // exactly on the second edge
		{179, 2},
		{math.Inf(1), 2}, // east of everything: fallback to last band
	}
	for _, tc := range cases {
		if got := s.partitionOf(tc.lon); got != tc.want {
			t.Errorf("partitionOf(%v) = %d, want %d", tc.lon, got, tc.want)
		}
	}
	// Finite last bound: longitudes beyond it must still land in the
	// last band via the fallback, never index out of range.
	s2 := &System{partitions: []*partition{
		{loLon: math.Inf(-1), hiLon: 0},
		{loLon: 0, hiLon: 20},
	}}
	if got := s2.partitionOf(25); got != 1 {
		t.Errorf("partitionOf east of a finite last bound = %d, want 1", got)
	}
}

// TestWatchdogLostEventAccountingParity wedges the single recognizer
// and one partition of a partitioned system over the same stream, and
// checks both account every post-wedge event as lost the same way:
// through Health.DropsByCause["watchdog"], counted per event.
func TestWatchdogLostEventAccountingParity(t *testing.T) {
	run := func(procs int, wedge int) (lost int, fed int) {
		release := make(chan struct{})
		defer close(release)
		hook := func(i int) {
			if i == wedge {
				<-release
			}
		}
		recognizerAdvanceHook.Store(&hook)
		defer recognizerAdvanceHook.Store(nil)

		sim := fleetsim.NewSimulator(simConfig(80, 3))
		fixes := sim.Run()
		vessels, areas, ports := AdaptWorld(sim)
		cfg := defaultSystemConfig()
		cfg.Processors = procs
		cfg.WatchdogTimeout = 50 * time.Millisecond
		sys := NewSystem(cfg, vessels, areas, ports)

		batcher := stream.NewBatcher(stream.NewSliceSource(fixes), 10*time.Minute)
		for {
			b, ok := batcher.Next()
			if !ok {
				break
			}
			rep := sys.ProcessBatch(b)
			if sys.Health().WatchdogTrips > 0 {
				// Events that reach a wedged recognizer after the trip are
				// the "fed" population the accounting must cover.
				fed += rep.CriticalPoints
			}
		}
		return sys.Health().DropsByCause["watchdog"], fed
	}

	lostSingle, fedSingle := run(1, -1)
	if lostSingle == 0 {
		t.Fatal("single recognizer: no events accounted as lost to the watchdog")
	}
	if fedSingle == 0 {
		t.Fatal("single recognizer: wedge happened on the final slide, test is vacuous")
	}

	lostPart, _ := run(2, 0)
	if lostPart == 0 {
		t.Fatal("partitioned: no events accounted as lost to the watchdog")
	}
	// Parity of mechanism, not of magnitude: the single recognizer loses
	// every event once wedged; the partitioned system loses only the
	// wedged band's share. Both must account through the same channel
	// and never exceed what was actually fed to a wedged recognizer.
	if lostSingle > fedSingle+lostSingle {
		t.Errorf("single recognizer over-accounted: lost %d", lostSingle)
	}
	h := Health{DropsByCause: map[string]int{"watchdog": lostPart}}
	if h.TotalDropped() != lostPart {
		t.Errorf("watchdog drops not visible through TotalDropped")
	}
}

// TestPipelineMetricsExport runs a short stream with metrics registered
// and checks every stage histogram, the throughput counters and the
// per-CE alert counters land in the exposition.
func TestPipelineMetricsExport(t *testing.T) {
	sim := fleetsim.NewSimulator(simConfig(150, 5))
	fixes := sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	sys := NewSystem(defaultSystemConfig(), vessels, areas, ports)
	reg := obs.NewRegistry()
	sys.RegisterMetrics(reg)

	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), 10*time.Minute)
	reports := sys.RunAll(batcher)
	if len(reports) == 0 {
		t.Fatal("no slides processed")
	}
	var alerts int
	for _, r := range reports {
		alerts += len(r.Alerts)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, stage := range []string{"tracking", "staging", "reconstruction", "loading", "recognition", "analytics", "total"} {
		if !strings.Contains(out, `maritime_slide_stage_seconds_count{stage="`+stage+`"}`) {
			t.Errorf("no %s stage histogram in scrape", stage)
		}
	}
	for _, name := range []string{
		"maritime_slides_total", "maritime_fixes_total",
		"maritime_critical_points_total", "maritime_watchdog_trips_total",
		"maritime_wedged_partitions",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("scrape missing %s", name)
		}
	}
	if slides := reg.Counter("maritime_slides_total", "", nil).Value(); slides != uint64(len(reports)) {
		t.Errorf("maritime_slides_total = %d, want %d", slides, len(reports))
	}
	if alerts > 0 && !strings.Contains(out, `maritime_alerts_total{ce="`) {
		t.Error("alerts recognized but no per-CE alert counter exported")
	}
	if reg.Histogram("maritime_slide_stage_seconds", "", obs.Labels{"stage": "tracking"}, nil).Count() != uint64(len(reports)) {
		t.Error("tracking histogram observation count != slides")
	}
	// Which rule the recognition time goes to: one series per definition,
	// together no more than the recognition stage they are part of.
	var defSeconds float64
	for _, def := range []string{"stopped", "lowSpeed", "illegalShipping", "dangerousShipping", "suspicious", "illegalFishing"} {
		var v float64
		series := `maritime_recognition_definition_seconds_total{definition="` + def + `"} `
		if i := strings.Index(out, series); i < 0 {
			t.Errorf("scrape missing %s", series)
		} else if _, err := fmt.Sscan(out[i+len(series):], &v); err != nil || v <= 0 {
			t.Errorf("%s= %v (%v), want > 0", series, v, err)
		}
		defSeconds += v
	}
	if stage := reg.Histogram("maritime_slide_stage_seconds", "", obs.Labels{"stage": "recognition"}, nil).Sum(); defSeconds > stage {
		t.Errorf("definitions account for %.6fs, the recognition stage took %.6fs", defSeconds, stage)
	}
}
