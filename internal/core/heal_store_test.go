package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/maritime"
	"repro/internal/obs"
)

// shortWindowConfig is defaultSystemConfig with a window short enough
// that delta points reach the store from the fourth slide on.
func shortWindowConfig() Config {
	cfg := defaultSystemConfig()
	cfg.Window.Range = 30 * time.Minute
	cfg.Recognition.Window = 30 * time.Minute
	return cfg
}

// TestSelfHealStorePanicAtEverySlide panics the archival path at every
// slide index across two re-bases of the store journal — whose base is
// a fork sharing the live store's points and trips — and heals it one
// slide or more than a cadence later, with recognition off and with the
// recognizer running beside archival on its own goroutine. Each run
// must end with the trips, staging area and origins of the run nothing
// happened to.
func TestSelfHealStorePanicAtEverySlide(t *testing.T) {
	const cadence = 4
	for _, recognition := range []bool{false, true} {
		cfg := shortWindowConfig()
		cfg.SelfHeal = true
		cfg.DisableRecognition = !recognition
		if recognition {
			cfg.WatchdogTimeout = 30 * time.Second
		}
		batches, vessels, areas, sim := slideBatches(t, simConfig(120, 6), cfg.Window.Slide)
		_, _, ports := AdaptWorld(sim)
		last := batches[len(batches)-1].Query

		for panicSlide := cadence; panicSlide < 3*cadence+2; panicSlide++ {
			for _, healAfter := range []int{1, cadence + 1} {
				t.Run(fmt.Sprintf("recognition=%v/panic@%d/heal+%d", recognition, panicSlide, healAfter), func(t *testing.T) {
					golden := newSystem(cfg, cadence, vessels, areas, ports)
					defer golden.Close()
					sys := newSystem(cfg, cadence, vessels, areas, ports)
					defer sys.Close()
					slide := 0
					sys.SetStoreFaultHook(func() {
						if slide == panicSlide {
							panic("injected archival fault")
						}
					})
					for i, b := range batches {
						slide = i
						golden.ProcessBatch(b)
						sys.ProcessBatch(b)
						if i == panicSlide && len(sys.Quarantined()) != 1 {
							t.Fatalf("store not quarantined after its panic: %+v", sys.Quarantined())
						}
						if i == panicSlide+healAfter {
							if err := sys.Heal("store"); err != nil {
								t.Fatal(err)
							}
						}
					}
					if len(golden.Store().Trips()) == 0 || golden.Store().StagedCount() == 0 {
						t.Fatal("undisturbed run archived nothing; the comparison is vacuous")
					}
					if h := sys.Health(); h.Restores != 1 || h.Quarantined != 0 || h.ReplayGapSlides != 0 {
						t.Errorf("health after heal: %+v", h)
					}
					sameFinalState(t, sys, golden, last)
				})
			}
		}
	}
}

// TestSelfHealJournalCapEvictsOldestOnly holds the recognizer and the
// store down past the journal cap: each journal must keep exactly the
// newest cap slides, in order, ReplayGapSlides must count exactly the
// slides evicted, and Heal must replay exactly the survivors.
func TestSelfHealJournalCapEvictsOldestOnly(t *testing.T) {
	cfg := shortWindowConfig()
	cfg.SelfHeal = true
	const capSlides, panicSlide, evicted = 8, 5, 5
	healSlide := panicSlide + capSlides - 1 + evicted
	batches, vessels, areas, sim := slideBatches(t, simConfig(120, 6), cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	if len(batches) < healSlide+2 {
		t.Fatalf("stream has %d slides, need %d", len(batches), healSlide+2)
	}

	// A system that never re-bases journals every slide it was given:
	// slide i's input is entry i of its journals.
	all := newSystem(cfg, len(batches)+1, vessels, areas, ports)
	defer all.Close()

	sys := newSystem(cfg, 1, vessels, areas, ports)
	defer sys.Close()
	slide := 0
	SetRecognizerFaultHook(func() {
		if slide == panicSlide {
			panic("injected recognizer fault")
		}
	})
	defer SetRecognizerFaultHook(nil)
	sys.SetStoreFaultHook(func() {
		if slide == panicSlide {
			panic("injected archival fault")
		}
	})
	for i, b := range batches[:healSlide+1] {
		slide = i
		all.ProcessBatch(b)
		sys.ProcessBatch(b)
	}
	if got := sys.Health().ReplayGapSlides; got != 2*evicted {
		t.Errorf("ReplayGapSlides = %d, want %d (%d evicted from each of two journals)", got, 2*evicted, evicted)
	}
	survivors := healSlide + 1 - capSlides
	wantRec, wantStore := all.recJ.Slides[survivors:], all.storeJ.Slides[survivors:]
	if !reflect.DeepEqual(sys.recJ.Slides, wantRec) {
		t.Errorf("recognizer journal holds %d slides, not the newest %d in order", len(sys.recJ.Slides), capSlides)
	}
	if !reflect.DeepEqual(sys.storeJ.Slides, wantStore) {
		t.Errorf("store journal holds %d slides, not the newest %d in order", len(sys.storeJ.Slides), capSlides)
	}
	if sys.recJ.downFrom != 0 {
		t.Errorf("downFrom = %d, want 0: every surviving slide's output was lost", sys.recJ.downFrom)
	}

	// What a replay of exactly the survivors yields.
	rec := maritime.NewRecognizer(cfg.Recognition, vessels, areas)
	rec.RestoreSnapshot(sys.recJ.Base)
	var wantRecovered []maritime.Alert
	for _, sl := range wantRec {
		wantRecovered = append(wantRecovered, rec.Advance(sl.q, sl.events, nil).Alerts...)
	}
	st := sys.storeJ.Base.Fork()
	for _, sl := range wantStore {
		st.Stage(sl.delta)
		st.Load(st.Reconstruct())
	}

	if err := sys.Heal("recognizer"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Heal("store"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys.recovered, wantRecovered) {
		t.Errorf("heal recovered %d alerts, a replay of the survivors yields %d", len(sys.recovered), len(wantRecovered))
	}
	if !reflect.DeepEqual(sys.Store().Trips(), st.Trips()) || sys.Store().StagedCount() != st.StagedCount() {
		t.Errorf("healed store holds %d trips / %d staged, a replay of the survivors %d / %d",
			len(sys.Store().Trips()), sys.Store().StagedCount(), len(st.Trips()), st.StagedCount())
	}
	var staged int
	for _, sl := range wantStore {
		staged += len(sl.delta)
	}
	if staged == 0 {
		t.Error("the surviving slides staged nothing; the store half is vacuous")
	}
}

// TestArchivalMetricsUnderConcurrentScrape scrapes the registry from
// other goroutines while the pipeline goroutine stages, reconstructs and
// re-bases, then reads the archival series: the staged gauge is the
// store's count, the scan counter is what reconstruction examined —
// every point once, not the staging area once per slide — and the
// store, recognizer and tracker re-base counters all moved.
func TestArchivalMetricsUnderConcurrentScrape(t *testing.T) {
	cfg := shortWindowConfig()
	cfg.SelfHeal = true
	batches, vessels, areas, sim := slideBatches(t, simConfig(120, 6), cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	sys := newSystem(cfg, 2, vessels, areas, ports)
	defer sys.Close()
	reg := obs.NewRegistry()
	sys.RegisterMetrics(reg)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b strings.Builder
				_ = reg.WriteText(&b)
			}
		}()
	}
	// What examining the whole staging area every slide would have cost.
	var fullScans int
	for _, b := range batches {
		sys.ProcessBatch(b)
		fullScans += sys.Store().StagedCount()
	}
	close(stop)
	scrapers.Wait()

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	scraped := func(series string) float64 { return scrapedValue(t, out, "\n"+series) }
	if got, want := scraped("maritime_mod_staged_points"), float64(sys.Store().StagedCount()); got != want || want == 0 {
		t.Errorf("maritime_mod_staged_points = %v, store holds %v", got, want)
	}
	scanned := scraped("maritime_mod_reconstruct_scanned_points_total")
	if scanned != float64(sys.Store().ScannedPoints()) {
		t.Errorf("scanned counter = %v, store examined %d", scanned, sys.Store().ScannedPoints())
	}
	if scanned == 0 || 3*scanned > float64(fullScans) {
		t.Errorf("reconstruction examined %v points; rescanning the staging area every slide would examine %d", scanned, fullScans)
	}
	for _, target := range []string{"store", "recognizer", "tracker"} {
		if v := scraped(`maritime_selfheal_rebase_seconds_total{target="` + target + `"}`); v <= 0 {
			t.Errorf("re-base seconds for %s = %v after %d slides at a cadence of 2", target, v, len(batches))
		}
	}
}
