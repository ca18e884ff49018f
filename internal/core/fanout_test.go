package core

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/stream"
)

// serialSlide is the reference composition of one slide: the stages
// processLocked runs, strictly one after another on the calling
// goroutine — archival, then recognition with nothing beside it, then
// analytics — merged the way processLocked merges them.
func serialSlide(s *System, b stream.Batch) SlideReport {
	rep := SlideReport{Query: b.Query, FixesIn: len(b.Fixes)}
	res := s.tracker.Slide(b)
	rep.CriticalPoints = len(res.Fresh)
	s.runArchival(&rep, res.Delta, true)
	events := maritime.MEStream(res.Fresh)
	// Joined at once: nothing runs beside the recognizer.
	rep.Alerts, _ = s.startRecognition(b.Query, events)()
	if s.analytics != nil {
		if pair := s.analytics.Slide(b.Query, res.Fresh); len(pair) > 0 {
			rep.Alerts = append(rep.Alerts, pair...)
			slices.SortStableFunc(rep.Alerts, maritime.CompareAlerts)
		}
	}
	return rep
}

// sameFinalState compares two systems' complete dynamic state: the
// snapshots of the recognizer, the tracker and the analytics tier,
// and the store's trips before and after the final drain (its snapshot
// gob-encodes maps, so its bytes differ between equal stores; draining
// turns the staged points the trip lists do not show into trips).
func sameFinalState(t *testing.T, got, want *System, last time.Time) {
	t.Helper()
	gs, err := got.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs.Recognizer, ws.Recognizer) {
		t.Error("recognizer snapshots diverged")
	}
	gs.Store, ws.Store = nil, nil
	if !reflect.DeepEqual(gs, ws) {
		t.Error("tracker or analytics snapshots diverged")
	}
	for _, when := range []string{"before", "after"} {
		if g, w := got.Store().StagedCount(), want.Store().StagedCount(); g != w {
			t.Errorf("%s the drain: %d points staged, want %d", when, g, w)
		}
		if !reflect.DeepEqual(got.Store().Trips(), want.Store().Trips()) {
			t.Errorf("%s the drain: stores hold different trips (%d vs %d)", when, len(got.Store().Trips()), len(want.Store().Trips()))
		}
		got.Drain(last)
		want.Drain(last)
	}
}

func alertStrings(rep SlideReport) []string {
	out := make([]string, len(rep.Alerts))
	for i, a := range rep.Alerts {
		out[i] = a.String()
	}
	return out
}

// TestFanOutMatchesSerialComposition runs the same fleet through
// ProcessBatch, where recognition works beside archival and analytics,
// and through the serial composition of the same stages: every slide's
// alerts (in order), critical points and trips, and at the end the
// recognizer's, the tracker's and the analytics tier's snapshot and the
// store's contents must be identical.
func TestFanOutMatchesSerialComposition(t *testing.T) {
	simCfg := simConfig(150, 6)
	simCfg.RendezvousPairs = 3
	simCfg.DarkPairs = 3
	pairwise := &analytics.Config{EnableCollision: true}
	cases := []struct {
		name      string
		watchdog  time.Duration
		analytics *analytics.Config
	}{
		{"production", 5 * time.Second, pairwise},
		{"bare", 0, nil},
		{"watchdog-only", 5 * time.Second, pairwise},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultSystemConfig()
			cfg.WatchdogTimeout = tc.watchdog
			cfg.Analytics = tc.analytics
			batches, vessels, areas, sim := slideBatches(t, simCfg, cfg.Window.Slide)
			_, _, ports := AdaptWorld(sim)

			overlapped := NewSystem(cfg, vessels, areas, ports)
			defer overlapped.Close()
			serial := NewSystem(cfg, vessels, areas, ports)
			defer serial.Close()
			alerts, pairAlerts, trips := 0, 0, 0
			for i, b := range batches {
				got, want := overlapped.ProcessBatch(b), serialSlide(serial, b)
				if !reflect.DeepEqual(alertStrings(got), alertStrings(want)) {
					t.Fatalf("slide %d alerts diverged:\noverlapped: %v\nserial:     %v", i, alertStrings(got), alertStrings(want))
				}
				if got.CriticalPoints != want.CriticalPoints || got.TripsCompleted != want.TripsCompleted {
					t.Fatalf("slide %d: %d critical points / %d trips, serial %d / %d",
						i, got.CriticalPoints, got.TripsCompleted, want.CriticalPoints, want.TripsCompleted)
				}
				alerts += len(got.Alerts)
				trips += got.TripsCompleted
				for _, a := range got.Alerts {
					if a.Vessel2 != 0 {
						pairAlerts++
					}
				}
			}
			if alerts == 0 || trips == 0 || (tc.analytics != nil && pairAlerts == 0) {
				t.Fatalf("vacuous run: %d alerts (%d pairwise), %d trips", alerts, pairAlerts, trips)
			}
			sameFinalState(t, overlapped, serial, batches[len(batches)-1].Query)
		})
	}
}

// TestQuarantineFaultsDuringOverlap fires the fault hooks while the
// slide's consumers run side by side — the recognizer stalls past the
// watchdog while archival runs, the store panics while the recognizer
// runs, and both in one slide — and checks that the quarantine, the
// rewind and the replay end where the undisturbed run ends: the same
// alerts, and identical recognizer, store, tracker and analytics
// snapshots.
func TestQuarantineFaultsDuringOverlap(t *testing.T) {
	simCfg := simConfig(120, 5)
	simCfg.RendezvousPairs = 2
	cfg := defaultSystemConfig()
	// Generous: under -race on a busy box a healthy slide must not trip it.
	cfg.WatchdogTimeout = 500 * time.Millisecond
	cfg.Analytics = &analytics.Config{EnableCollision: true}
	batches, vessels, areas, sim := slideBatches(t, simCfg, cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	const faultSlide = 7

	undisturbed := func() (*System, []string) {
		golden := NewSystem(cfg, vessels, areas, ports)
		t.Cleanup(golden.Close)
		var reports []SlideReport
		for _, b := range batches {
			reports = append(reports, golden.ProcessBatch(b))
		}
		return golden, alertKeys(reports)
	}

	for _, tc := range []struct {
		name                   string
		stallRecognizer, panic bool
	}{
		{"recognizer stalls while archival runs", true, false},
		{"store panics while the recognizer runs", false, true},
		{"both in one slide", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem(cfg, vessels, areas, ports)
			defer sys.Close()
			// The recognition goroutine may outlive its slide, so it reads
			// the slide number atomically.
			var slide atomic.Int64
			recRunning := make(chan struct{})   // the recognizer goroutine is inside the fault slide
			storeFaulted := make(chan struct{}) // archival has run (and panicked, when asked to)
			release := make(chan struct{})      // lets a stalled recognizer goroutine go
			defer close(release)
			var recFired, storeFired atomic.Bool
			SetRecognizerFaultHook(func() {
				if slide.Load() != faultSlide || !recFired.CompareAndSwap(false, true) {
					return
				}
				close(recRunning)
				if tc.stallRecognizer {
					<-release
				} else {
					<-storeFaulted // still running when the store panics
				}
			})
			defer SetRecognizerFaultHook(nil)
			sys.SetStoreFaultHook(func() {
				if slide.Load() != faultSlide || !storeFired.CompareAndSwap(false, true) {
					return
				}
				<-recRunning // archival runs while the recognizer does
				defer close(storeFaulted)
				if tc.panic {
					panic("injected archival fault")
				}
			})
			var want []string
			if tc.stallRecognizer {
				want = append(want, "recognizer:stall")
			}
			if tc.panic {
				want = append(want, "store:panic")
			}
			sys.OnSlideEnd(func(rep SlideReport) {
				if !rep.Rewind {
					return
				}
				var got []string
				for _, q := range rep.Faults {
					got = append(got, q.Target+":"+q.Cause)
				}
				slices.Sort(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("quarantined on the fault slide: %v, want %v", got, want)
				}
			})

			reports := rewindRun(t, sys, batches, 3, func(i int) { slide.Store(int64(i)) })
			h := sys.Health()
			if h.Quarantined != 0 || h.Restores != 1 || h.State() != "ok" {
				t.Fatalf("final health %s, want one rewind and nothing down", h)
			}
			// A fresh undisturbed run each time: comparing drains both.
			golden, want := undisturbed()
			if got := alertKeys(reports); !reflect.DeepEqual(want, got) {
				t.Errorf("alert streams diverged: undisturbed %d alerts, faulted %d", len(want), len(got))
			}
			sameFinalState(t, sys, golden, batches[len(batches)-1].Query)
		})
	}
}

// TestDegradationVotesOnWallTime makes two stages slow at once on
// goroutines that run side by side: their busy times add up to more
// than SlideHigh, the slide itself takes about one of them. The ladder
// must go by what the slide cost the pipeline, and stay down.
func TestDegradationVotesOnWallTime(t *testing.T) {
	const stageCost, slideHigh = 300 * time.Millisecond, 500 * time.Millisecond
	cfg := defaultSystemConfig()
	cfg.WatchdogTimeout = 10 * time.Second // recognition on its own goroutine
	cfg.Degrade = &DegradeSpec{SlideHigh: slideHigh, EnterAfter: 1}
	batches, vessels, areas, sim := slideBatches(t, simConfig(40, 1), cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	sys := NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	SetRecognizerFaultHook(func() { time.Sleep(stageCost) })
	defer SetRecognizerFaultHook(nil)
	sys.SetStoreFaultHook(func() { time.Sleep(stageCost) })

	for _, b := range batches[:3] {
		rep := sys.ProcessBatch(b)
		if busy := rep.Timings.busy(); busy < 2*stageCost {
			t.Fatalf("stage busy times add up to %s, want ≥ %s", busy, 2*stageCost)
		}
		if rep.Timings.Recognition < stageCost {
			t.Fatalf("recognition busy time %s lost the %s it spent", rep.Timings.Recognition, stageCost)
		}
		if rep.Timings.Wall >= slideHigh {
			t.Skipf("box too slow to tell: the slide took %s with two overlapped %s stages", rep.Timings.Wall, stageCost)
		}
		if lvl := sys.DegradationLevel(); lvl != DegradeNone {
			t.Fatalf("slide took %s, under SlideHigh %s, yet the ladder climbed to L%d on the stages' sum %s",
				rep.Timings.Wall, slideHigh, lvl, rep.Timings.busy())
		}
	}
}

// TestLosslessReplayDoesNotDegrade replays a recorded fleet through a
// lossless ingest stage with the backlog trigger armed, the way
// `recognize -degrade` reads a file. A replay outruns the pipeline on
// every slide, so the stage is always blocked on a finished slide: that
// is backpressure, not overload, and the ladder must stay down and the
// output equal the run without it.
func TestLosslessReplayDoesNotDegrade(t *testing.T) {
	simCfg := simConfig(150, 5)
	cfg := defaultSystemConfig()
	fixes := fleetsim.NewSimulator(simCfg).Run()
	run := func(degrade bool) []string {
		sim := fleetsim.NewSimulator(simCfg)
		vessels, areas, ports := AdaptWorld(sim)
		stage := stream.NewIngestStage(stream.NewBatcher(stream.NewSliceSource(fixes), cfg.Window.Slide), 0)
		defer stage.Close()
		c := cfg
		if degrade {
			c.Degrade = &DegradeSpec{DepthHigh: 1, DepthFunc: stage.Pending, EnterAfter: 1}
		}
		sys := NewSystem(c, vessels, areas, ports)
		defer sys.Close()
		var reports []SlideReport
		for {
			b, ok := stage.Next()
			if !ok {
				break
			}
			// Long enough for ingest to finish the next slide and block.
			time.Sleep(time.Millisecond)
			reports = append(reports, sys.ProcessBatch(b))
			if lvl := sys.DegradationLevel(); lvl != DegradeNone {
				t.Fatalf("slide %d: ladder at L%d on a lossless replay", len(reports), lvl)
			}
			stage.Recycle(b)
		}
		return alertKeys(reports)
	}
	want, got := run(false), run(true)
	if len(want) == 0 {
		t.Fatal("vacuous run: no alerts")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay with the ladder armed gave %d alerts, without %d", len(got), len(want))
	}
}
