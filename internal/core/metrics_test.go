package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// TestHealthScrapeConcurrentWithProcessBatch is the regression test for
// the watchdog-counter data race: Health() used to read plain ints that
// the recognition watchdog mutates mid-slide, so the first concurrent
// metrics scrape was undefined behavior. Run under -race (CI does) this
// fails loudly if the counters ever regress to unsynchronized fields.
// The hook wedges the recognizer halfway through the run so the run
// exercises the mutation paths — trips, lost events and wedged flags —
// while scrapers hammer Health.
// The analytics tier is armed so the same scrapes also race the
// pipeline goroutine's per-slide adds into the per-screen and overlap
// counters, and the stream arrives through an ingest stage on the same
// registry so they race both sides' adds into its wait counters too.
func TestHealthScrapeConcurrentWithProcessBatch(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	// Until the wedge, each step is held open until archival has begun
	// and then for a moment beside it, so the slide's stages overlap even
	// when the scrapers leave the pipeline a single core: without it the
	// recognizer's goroutine may only be scheduled once the caller blocks
	// in the join.
	const wedgeSlide = 8
	archiving := make(chan struct{}, 1)
	var steps atomic.Int64
	hook := func() {
		if steps.Add(1) == wedgeSlide+1 {
			<-release
			return
		}
		select {
		case <-archiving:
		case <-time.After(100 * time.Millisecond):
		}
		time.Sleep(2 * time.Millisecond)
	}
	recognizerAdvanceHook.Store(&hook)
	defer recognizerAdvanceHook.Store(nil)

	sim := fleetsim.NewSimulator(simConfig(100, 3))
	fixes := sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	// The budget must be generous: under -race on a small machine the
	// four busy-loop scrapers can starve the recognizer's goroutine for
	// tens of milliseconds, and only the hook-blocked step may trip the
	// watchdog.
	cfg := defaultSystemConfig()
	cfg.WatchdogTimeout = 500 * time.Millisecond
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
				if h.RecognizerDown < 0 {
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
	memoryGauge := func() float64 {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return scrapedValue(t, b.String(), "\nmaritime_recognition_working_memory_events")
	}
	for slide := 0; ; slide++ {
		b, ok := stage.Next()
		if !ok {
			break
		}
		if slide == wedgeSlide {
			// The window a step ranges over: the in-service recognizer's
			// working memory.
			held := sys.Recognizer().Engine().WorkingMemorySize()
			if v := memoryGauge(); v != float64(held) || held == 0 {
				t.Errorf("working-memory gauge = %v, the recognizer holds %d events", v, held)
			}
		}
		sys.ProcessBatch(b)
		stage.Recycle(b)
	}
	close(stop)
	scrapers.Wait()

	h := sys.Health()
	if h.WatchdogTrips != 1 || h.RecognizerDown != 1 {
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
	// The recognizer ran beside archival and analytics on every slide up
	// to the wedge.
	if v := scraped("\nmaritime_slide_overlap_seconds_total"); v <= 0 {
		t.Errorf("overlap = %.6fs with recognition on its own goroutine", v)
	}
	// The wedged recognizer is out of service and not counted.
	if v := scraped("\nmaritime_recognition_working_memory_events"); v != 0 {
		t.Errorf("working-memory gauge = %v with the recognizer wedged, want 0", v)
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

// TestWatchdogLostEventAccountingParity wedges the recognizer partway
// through a stream and checks the loss is accounted per event through
// Health.DropsByCause["watchdog"]: exactly the movement events handed
// to the recognizer from the tripped slide on, counted independently
// from each slide's fresh critical points.
func TestWatchdogLostEventAccountingParity(t *testing.T) {
	const wedgeSlide = 5
	release := make(chan struct{})
	defer close(release)
	var steps atomic.Int64
	hook := func() {
		if steps.Add(1) == wedgeSlide+1 {
			<-release
		}
	}
	recognizerAdvanceHook.Store(&hook)
	defer recognizerAdvanceHook.Store(nil)

	sim := fleetsim.NewSimulator(simConfig(80, 3))
	fixes := sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	cfg := defaultSystemConfig()
	cfg.WatchdogTimeout = 250 * time.Millisecond
	sys := NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	events := 0
	sys.SetFreshObserver(func(_ time.Time, fresh []tracker.CriticalPoint) {
		events = len(maritime.MEStream(fresh))
	})

	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), 10*time.Minute)
	fed, after := 0, 0
	for slide := 0; ; slide++ {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		sys.ProcessBatch(b)
		if slide >= wedgeSlide {
			fed += events
			if slide > wedgeSlide {
				after += events
			}
		}
	}
	if h := sys.Health(); h.WatchdogTrips != 1 {
		t.Fatalf("WatchdogTrips = %d, want 1: the wedge did not trip on slide %d", h.WatchdogTrips, wedgeSlide)
	}
	if after == 0 {
		t.Fatal("no events after the trip: the test is vacuous")
	}
	lost := sys.Health().DropsByCause["watchdog"]
	if lost != fed {
		t.Errorf("watchdog drops = %d, the wedged recognizer was handed %d events from the trip on", lost, fed)
	}
	h := Health{DropsByCause: map[string]int{"watchdog": lost}}
	if h.TotalDropped() != lost {
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
		"maritime_recognizer_down",
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
