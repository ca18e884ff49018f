package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/stream"
)

// TestWatchdogSingleRecognizer wedges the recognizer on its first step:
// every slide stays bounded by the watchdog, recognition degrades to
// nothing, the recognizer is advanced exactly once and skipped
// afterwards, and the loss is accounted in Health and in the slide
// reports.
func TestWatchdogSingleRecognizer(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	calls := make(chan struct{}, 64)
	hook := func() {
		calls <- struct{}{}
		<-release // wedged until the test ends
	}
	recognizerAdvanceHook.Store(&hook)
	defer recognizerAdvanceHook.Store(nil)

	cfg := defaultSystemConfig()
	cfg.WatchdogTimeout = 100 * time.Millisecond
	sim := fleetsim.NewSimulator(simConfig(40, 2))
	fixes := sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	sys := NewSystem(cfg, vessels, areas, ports)
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), 10*time.Minute)
	start := time.Now()
	var reports []SlideReport
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		slideStart := time.Now()
		reports = append(reports, sys.ProcessBatch(b))
		if d := time.Since(slideStart); d > 5*time.Second {
			t.Fatalf("slide took %v despite a 100ms watchdog: the wedged recognizer hung the pipeline", d)
		}
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("run took %v, watchdog is not bounding slides", time.Since(start))
	}
	if len(reports) == 0 {
		t.Fatal("no slides processed")
	}
	h := sys.Health()
	if h.WatchdogTrips != 1 || h.RecognizerDown != 1 {
		t.Errorf("health = %+v, want 1 trip / 1 wedged", h)
	}
	if h.DropsByCause["watchdog"] == 0 {
		t.Error("no events accounted as lost to the watchdog")
	}
	// Receive rather than close: the abandoned goroutine's send has no
	// happens-before edge with this goroutine, and close-vs-send is a
	// race. It may have been scheduled only after the trip, so wait for
	// its one call.
	select {
	case <-calls:
	case <-time.After(5 * time.Second):
		t.Fatal("the recognizer was never advanced")
	}
	if n := len(calls); n != 0 {
		t.Errorf("wedged recognizer advanced %d times, want 1", 1+n)
	}
	for _, r := range reports {
		if len(r.Alerts) != 0 {
			t.Error("alerts produced by a wedged recognizer")
		}
	}
	// Health rides along on slide reports.
	if last := reports[len(reports)-1]; last.Health.WatchdogTrips != 1 {
		t.Errorf("SlideReport.Health.WatchdogTrips = %d, want 1", last.Health.WatchdogTrips)
	}
}

// TestWatchdogSkipsWedgedPartition wedges the recognizer partway
// through a stream and checks every slide completes within the budget,
// the alerts recognized before the wedge survive, and later slides skip
// the wedged recognizer instead of advancing it again.
func TestWatchdogSkipsWedgedPartition(t *testing.T) {
	const wedgeStep = 18
	release := make(chan struct{})
	defer close(release)
	var steps atomic.Int64
	hook := func() {
		if steps.Add(1) == wedgeStep {
			<-release // wedged until the test ends
		}
	}
	recognizerAdvanceHook.Store(&hook)
	defer recognizerAdvanceHook.Store(nil)

	cfg := defaultSystemConfig()
	cfg.WatchdogTimeout = 200 * time.Millisecond
	sim := fleetsim.NewSimulator(simConfig(150, 6))
	fixes := sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	sys := NewSystem(cfg, vessels, areas, ports)

	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), 10*time.Minute)
	start := time.Now()
	var reports []SlideReport
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		slideStart := time.Now()
		reports = append(reports, sys.ProcessBatch(b))
		if d := time.Since(slideStart); d > 5*time.Second {
			t.Fatalf("slide took %v despite a 200ms watchdog: the wedged recognizer hung the pipeline", d)
		}
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("run took %v, watchdog is not bounding slides", time.Since(start))
	}
	if len(reports) <= wedgeStep {
		t.Fatalf("%d slides, want more than %d: the wedge never happened", len(reports), wedgeStep)
	}

	h := sys.Health()
	if h.WatchdogTrips != 1 {
		t.Errorf("WatchdogTrips = %d, want exactly 1 (the recognizer is skipped afterwards)", h.WatchdogTrips)
	}
	if h.RecognizerDown != 1 {
		t.Errorf("RecognizerDown = %d, want 1", h.RecognizerDown)
	}
	if h.DropsByCause["watchdog"] == 0 {
		t.Error("no events accounted as lost to the watchdog")
	}
	// The recognizer must have been advanced up to the wedge and never
	// again. The wedged call may be scheduled only after the trip, so
	// wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for steps.Load() < wedgeStep && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := steps.Load(); n != wedgeStep {
		t.Errorf("recognizer advanced %d times, want %d (wedged on the last)", n, wedgeStep)
	}

	// The alerts recognized before the wedge survive it.
	alerts := 0
	for _, r := range reports {
		alerts += len(r.Alerts)
	}
	if alerts == 0 {
		t.Error("no alerts before the wedge: degradation was total")
	}
	// Health rides along on slide reports.
	if last := reports[len(reports)-1]; last.Health.WatchdogTrips != 1 {
		t.Errorf("SlideReport.Health.WatchdogTrips = %d, want 1", last.Health.WatchdogTrips)
	}
}

// TestHealthSources checks driver-contributed counters merge into the
// per-slide snapshots.
func TestHealthSources(t *testing.T) {
	cfg := defaultSystemConfig()
	sim := fleetsim.NewSimulator(simConfig(40, 2))
	fixes := sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	sys := NewSystem(cfg, vessels, areas, ports)
	sys.AddHealthSource(func() Health {
		return Health{Reconnects: 3, Resumes: 2, IngestOverflow: 7,
			DropsByCause: map[string]int{"overflow": 7, "checksum": 1}}
	})
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), 10*time.Minute)
	reports := sys.RunAll(batcher)
	h := reports[len(reports)-1].Health
	if h.Reconnects != 3 || h.Resumes != 2 || h.IngestOverflow != 7 {
		t.Errorf("driver counters lost in merge: %+v", h)
	}
	if h.DropsByCause["overflow"] != 7 || h.DropsByCause["checksum"] != 1 {
		t.Errorf("drop causes lost in merge: %+v", h.DropsByCause)
	}
	if h.TotalDropped() != 8 {
		t.Errorf("TotalDropped = %d, want 8", h.TotalDropped())
	}
	if got := h.String(); got == "" {
		t.Error("empty health summary")
	}
}
