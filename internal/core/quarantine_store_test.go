package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestQuarantineStorePanicAtEverySlide panics the archival path at every
// slide index of a run and rewinds to a snapshot taken one slide or
// more than a cadence of slides before the fault ("replay+M": the rewind
// replays M slides), with recognition off and with the recognizer
// running beside archival on its own goroutine. Each run must end with
// the trips, staging area and origins of the run nothing happened to.
func TestQuarantineStorePanicAtEverySlide(t *testing.T) {
	const cadence = 4
	for _, recognition := range []bool{false, true} {
		cfg := shortWindowConfig()
		cfg.DisableRecognition = !recognition
		if recognition {
			cfg.WatchdogTimeout = 30 * time.Second
		}
		batches, vessels, areas, sim := slideBatches(t, simConfig(120, 6), cfg.Window.Slide)
		_, _, ports := AdaptWorld(sim)
		last := batches[len(batches)-1].Query

		for panicSlide := cadence; panicSlide < 3*cadence+2; panicSlide++ {
			for _, replayed := range []int{1, cadence + 1} {
				t.Run(fmt.Sprintf("recognition=%v/panic@%d/replay+%d", recognition, panicSlide, replayed), func(t *testing.T) {
					golden := NewSystem(cfg, vessels, areas, ports)
					defer golden.Close()
					sys := NewSystem(cfg, vessels, areas, ports)
					defer sys.Close()
					sys.RewindOnFault()
					slide, fired := 0, false
					sys.SetStoreFaultHook(func() {
						if slide == panicSlide && !fired {
							fired = true
							panic("injected archival fault")
						}
					})
					for _, b := range batches {
						golden.ProcessBatch(b)
					}
					snap, err := sys.Snapshot() // covers the slides before the first
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < len(batches); i++ {
						slide = i
						rep := sys.ProcessBatch(batches[i])
						if rep.Rewind {
							if i != panicSlide || len(rep.Faults) != 1 || rep.Faults[0].Target != "store" {
								t.Fatalf("slide %d asked for a rewind after %+v", i, rep.Faults)
							}
							if err := sys.RestoreSnapshot(snap); err != nil {
								t.Fatal(err)
							}
							i = panicSlide - replayed
							continue
						}
						if i == panicSlide-replayed {
							if snap, err = sys.Snapshot(); err != nil {
								t.Fatal(err)
							}
						}
					}
					if len(golden.Store().Trips()) == 0 || golden.Store().StagedCount() == 0 {
						t.Fatal("undisturbed run archived nothing; the comparison is vacuous")
					}
					if h := sys.Health(); h.Restores != 1 || h.Quarantined != 0 || h.ReplayGapSlides != 0 {
						t.Errorf("health after the rewind: %s", h)
					}
					sameFinalState(t, sys, golden, last)
				})
			}
		}
	}
}

// TestArchivalMetricsUnderConcurrentScrape scrapes the registry from
// other goroutines while the pipeline goroutine stages and
// reconstructs, then reads the archival series: the staged gauge is the
// store's count, and the scan counter is what reconstruction examined —
// every point once, not the staging area once per slide.
func TestArchivalMetricsUnderConcurrentScrape(t *testing.T) {
	cfg := shortWindowConfig()
	batches, vessels, areas, sim := slideBatches(t, simConfig(120, 6), cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	sys := NewSystem(cfg, vessels, areas, ports)
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
}
