package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/maritime"
	"repro/internal/tracker"
)

// TestQuarantineLostEventsCountOnlyUnrecoverable panics the recognizer
// with rewinds armed ("rewind") and without ("abandon"). Events are lost
// only when no replay brings them back: a rewound run reports no
// watchdog drops (and the alerts of the run nothing happened to); a run
// that cannot rewind keeps the recognizer down and counts exactly the
// events of the faulted slide and of every slide after it.
func TestQuarantineLostEventsCountOnlyUnrecoverable(t *testing.T) {
	cfg := defaultSystemConfig()
	batches, vessels, areas, sim := slideBatches(t, simConfig(150, 5), cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	const panicSlide = 8

	golden := NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	var goldenReports []SlideReport
	for _, b := range batches {
		goldenReports = append(goldenReports, golden.ProcessBatch(b))
	}

	for _, rewind := range []bool{true, false} {
		name := "abandon"
		if rewind {
			name = "rewind"
		}
		t.Run(name, func(t *testing.T) {
			sys := NewSystem(cfg, vessels, areas, ports)
			defer sys.Close()
			// Each slide's movement events, counted from the fresh points.
			slide := 0
			events := make([]int, len(batches))
			sys.SetFreshObserver(func(_ time.Time, fresh []tracker.CriticalPoint) {
				events[slide] = len(maritime.MEStream(fresh))
			})
			fired := false
			SetRecognizerFaultHook(func() {
				if slide == panicSlide && !fired {
					fired = true
					panic("injected recognizer fault")
				}
			})
			defer SetRecognizerFaultHook(nil)

			if !rewind {
				for i, b := range batches {
					slide = i
					sys.ProcessBatch(b)
				}
				want := 0
				for k := panicSlide; k < len(batches); k++ {
					want += events[k]
				}
				if want == 0 {
					t.Fatal("no events after the fault; the test is vacuous")
				}
				h := sys.Health()
				if lost := h.DropsByCause["watchdog"]; lost != want {
					t.Fatalf("counted %d events lost, the slides since the fault carried %d", lost, want)
				}
				if h.Quarantined != 1 || h.State() != "degraded" {
					t.Fatalf("without rewinds the recognizer stays quarantined: %s", h)
				}
				return
			}
			reports := rewindRun(t, sys, batches, 3, func(i int) { slide = i })
			h := sys.Health()
			if lost := h.DropsByCause["watchdog"]; lost != 0 || h.TotalDropped() != 0 {
				t.Errorf("rewound run reports drops %v", h.DropsByCause)
			}
			if want, got := alertKeys(goldenReports), alertKeys(reports); !reflect.DeepEqual(want, got) {
				t.Errorf("rewound run gave %d alerts, the undisturbed run %d", len(got), len(want))
			}
		})
	}
}
