package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/maritime"
	"repro/internal/tracker"
)

// TestSelfHealLostEventsCountOnlyUnrecoverable panics the recognizer
// and then heals it, or gives up on it. Under SelfHeal its events are
// journaled while it is down, so they are lost only once no replay can
// bring them back: a healed run reports no watchdog drops (and the
// alerts of the run nothing happened to), an abandoned one exactly the
// events of the slides journaled since the quarantine.
func TestSelfHealLostEventsCountOnlyUnrecoverable(t *testing.T) {
	cfg := defaultSystemConfig()
	cfg.SelfHeal = true
	batches, vessels, areas, sim := slideBatches(t, simConfig(150, 5), cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	const panicSlide, repairSlide = 8, 10

	golden := NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	var goldenReports []SlideReport
	for _, b := range batches {
		goldenReports = append(goldenReports, golden.ProcessBatch(b))
	}

	for _, heal := range []bool{true, false} {
		name := "abandon"
		if heal {
			name = "heal"
		}
		t.Run(name, func(t *testing.T) {
			sys := NewSystem(cfg, vessels, areas, ports)
			defer sys.Close()
			// Each slide's movement events, counted from the fresh points
			// independently of the journal.
			slide := 0
			events := make([]int, len(batches))
			sys.SetFreshObserver(func(_ time.Time, fresh []tracker.CriticalPoint) {
				events[slide] = len(maritime.MEStream(fresh))
			})
			SetRecognizerFaultHook(func() {
				if slide == panicSlide {
					panic("injected recognizer fault")
				}
			})
			defer SetRecognizerFaultHook(nil)

			var reports []SlideReport
			for i, b := range batches {
				slide = i
				reports = append(reports, sys.ProcessBatch(b))
				if i != repairSlide {
					continue
				}
				if lost := sys.Health().DropsByCause["watchdog"]; lost != 0 {
					t.Fatalf("%d events counted lost while still journaled for a heal", lost)
				}
				if heal {
					if err := sys.Heal("recognizer"); err != nil {
						t.Fatal(err)
					}
					continue
				}
				sys.Abandon("recognizer")
				want := 0
				for k := panicSlide; k <= repairSlide; k++ {
					want += events[k]
				}
				if want == 0 {
					t.Fatal("no events while quarantined; the test is vacuous")
				}
				if lost := sys.Health().DropsByCause["watchdog"]; lost != want {
					t.Fatalf("abandon counted %d events lost, the quarantine journaled %d", lost, want)
				}
			}
			if !heal {
				return
			}
			h := sys.Health()
			if lost := h.DropsByCause["watchdog"]; lost != 0 || h.TotalDropped() != 0 {
				t.Errorf("healed run reports drops %v", h.DropsByCause)
			}
			if want, got := alertKeys(goldenReports), alertKeys(reports); !reflect.DeepEqual(want, got) {
				t.Errorf("healed run gave %d alerts, the undisturbed run %d", len(got), len(want))
			}
		})
	}
}
