package core

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/stream"
)

// slideBatches materializes the simulator stream into slide batches so
// golden and faulted systems can be driven in lockstep.
func slideBatches(t *testing.T, simCfg fleetsim.Config, slide time.Duration) ([]stream.Batch, []maritime.Vessel, []maritime.Area, *fleetsim.Simulator) {
	t.Helper()
	sim := fleetsim.NewSimulator(simCfg)
	fixes := sim.Run()
	if len(fixes) == 0 {
		t.Fatal("simulator produced no fixes")
	}
	vessels, areas, _ := AdaptWorld(sim)
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), slide)
	var batches []stream.Batch
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		batches = append(batches, b)
	}
	return batches, vessels, areas, sim
}

// alertKeys renders alerts into a comparable sorted multiset (recovered
// alerts are delivered on a later slide than the golden run emitted
// them, so per-slide order is not preserved — but the multiset must
// be).
func alertKeys(reports []SlideReport) []string {
	keys := []string{}
	for _, r := range reports {
		for _, a := range r.Alerts {
			keys = append(keys, a.String())
		}
	}
	sort.Strings(keys)
	return keys
}

// rewindRun drives sys over batches the way checkpoint.Run drives a
// system that rewinds on faults: a snapshot every `every` slides stands
// in for the checkpoint, a report asking for a rewind restores the
// newest one and replays the slides since, and the reports a driver
// passes on — neither rewound nor replayed — are returned. before, when
// set, runs ahead of every processed slide with its batch index.
func rewindRun(t *testing.T, sys *System, batches []stream.Batch, every int, before func(i int)) []SlideReport {
	t.Helper()
	sys.RewindOnFault()
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base := -1 // the last slide the snapshot covers
	var out []SlideReport
	for i := 0; i < len(batches); i++ {
		if before != nil {
			before(i)
		}
		rep := sys.ProcessBatch(batches[i])
		if rep.Rewind {
			if err := sys.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			i = base
			continue
		}
		if !rep.Replay {
			out = append(out, rep)
		}
		// A snapshot fails while a target is fenced; the previous one
		// stays the newest, as a failed checkpoint save leaves it.
		if (i+1)%every == 0 {
			if s, err := sys.Snapshot(); err == nil {
				snap, base = s, i
			}
		}
	}
	return out
}

// sameReports requires the delivered reports to be the fault-free run's,
// slide by slide.
func sameReports(t *testing.T, want, got []SlideReport) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %d slides, the fault-free run %d", len(got), len(want))
	}
	for i := range want {
		if !want[i].Query.Equal(got[i].Query) || !reflect.DeepEqual(alertStrings(want[i]), alertStrings(got[i])) ||
			want[i].CriticalPoints != got[i].CriticalPoints || want[i].TripsCompleted != got[i].TripsCompleted {
			t.Fatalf("slide %d differs from the fault-free run:\n  want %v\n  got  %v", i, alertStrings(want[i]), alertStrings(got[i]))
		}
	}
}

// TestSelfHealRecognizerPanicQuarantineHeal injects a panic into the
// recognizer mid-run: the process must survive, the recognizer must be
// quarantined with the panic captured, the slide must ask for a rewind
// without reaching the sinks, Snapshot must refuse with ErrWedged, and
// after the restore and replay every delivered slide must match the
// fault-free golden run.
func TestSelfHealRecognizerPanicQuarantineHeal(t *testing.T) {
	simCfg := simConfig(150, 5)
	cfg := defaultSystemConfig()
	batches, vessels, areas, sim := slideBatches(t, simCfg, cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	const panicSlide = 8

	golden := NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	var goldenReports []SlideReport
	for _, b := range batches {
		goldenReports = append(goldenReports, golden.ProcessBatch(b))
	}

	sys := NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	sink := &countingSink{}
	sys.AddAlertSink(sink)
	var fired atomic.Bool
	SetRecognizerFaultHook(func() {
		if sink.slides.Load() == panicSlide && fired.CompareAndSwap(false, true) {
			panic("injected recognizer fault")
		}
	})
	defer SetRecognizerFaultHook(nil)
	rewinds := 0
	sys.OnSlideEnd(func(rep SlideReport) {
		if !rep.Rewind {
			return
		}
		rewinds++
		h := rep.Health
		if h.PanicsRecovered != 1 || h.Quarantined != 1 || h.State() != "degraded" {
			t.Errorf("faulted slide: health %s, want 1 panic recovered / 1 quarantined", h)
		}
		q := rep.Faults
		if len(q) != 1 || q[0].Target != "recognizer" || q[0].Cause != "panic" ||
			!strings.Contains(q[0].Value, "injected recognizer fault") || q[0].Stack == "" {
			t.Errorf("quarantine records: %+v", q)
		}
		if _, err := sys.Snapshot(); !errors.Is(err, ErrWedged) {
			t.Errorf("Snapshot while quarantined: err=%v, want ErrWedged", err)
		}
	})

	reports := rewindRun(t, sys, batches, 3, nil)
	if rewinds != 1 {
		t.Fatalf("%d rewinds, want 1", rewinds)
	}
	if h := sys.Health(); h.Quarantined != 0 || h.Restores != 1 || h.State() != "ok" {
		t.Errorf("after the rewind: %s", h)
	}
	if got := int(sink.slides.Load()); got != len(batches) {
		t.Errorf("the sink saw %d slides, the stream has %d", got, len(batches))
	}
	sameReports(t, goldenReports, reports)
}

// countingSink counts the slides that reach it, replays excluded.
type countingSink struct{ slides atomic.Int64 }

func (c *countingSink) Consume(rep SlideReport) {
	if !rep.Replay {
		c.slides.Add(1)
	}
}

// TestSelfHealSupervisorRestoresStalledRecognizer wedges the single
// recognizer via the watchdog: the rewind replaces it with a fresh one
// while the wedged goroutine still runs, ErrWedged is transient, and
// every delivered slide matches the golden run.
func TestSelfHealSupervisorRestoresStalledRecognizer(t *testing.T) {
	simCfg := simConfig(120, 4)
	cfg := defaultSystemConfig()
	cfg.WatchdogTimeout = 100 * time.Millisecond
	batches, vessels, areas, sim := slideBatches(t, simCfg, cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	const stallSlide = 6

	goldenCfg := cfg
	goldenCfg.WatchdogTimeout = 0
	golden := NewSystem(goldenCfg, vessels, areas, ports)
	defer golden.Close()
	var goldenReports []SlideReport
	for _, b := range batches {
		goldenReports = append(goldenReports, golden.ProcessBatch(b))
	}

	sys := NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	release := make(chan struct{})
	defer close(release)
	// The hook runs on recognition goroutines that may outlive their
	// slide (that is the point of the watchdog), so the slide number
	// must be read atomically.
	var slide atomic.Int64
	var stalled atomic.Bool
	SetRecognizerFaultHook(func() {
		if slide.Load() == stallSlide && stalled.CompareAndSwap(false, true) {
			<-release
		}
	})
	defer SetRecognizerFaultHook(nil)

	reports := rewindRun(t, sys, batches, 4, func(i int) { slide.Store(int64(i)) })
	h := sys.Health()
	if h.WatchdogTrips != 1 {
		t.Errorf("WatchdogTrips = %d, want 1", h.WatchdogTrips)
	}
	if h.Quarantined != 0 || h.Restores != 1 || h.State() != "ok" || h.TotalDropped() != 0 {
		t.Errorf("final health %s, want fully recovered, nothing lost", h)
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Errorf("Snapshot after the rewind: %v", err)
	}
	sameReports(t, goldenReports, reports)
}

// TestSelfHealStorePanicQuarantineHeal panics the archival path: the
// store is quarantined, the rewind replaces it, and the final store
// contents equal the fault-free run's.
func TestSelfHealStorePanicQuarantineHeal(t *testing.T) {
	simCfg := simConfig(120, 4)
	cfg := defaultSystemConfig()
	cfg.DisableRecognition = true
	batches, vessels, areas, sim := slideBatches(t, simCfg, cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	const panicSlide = 5

	golden := NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	for _, b := range batches {
		golden.ProcessBatch(b)
	}
	golden.Drain(batches[len(batches)-1].Query)

	sys := NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	slide := 0
	fired := false
	sys.SetStoreFaultHook(func() {
		if slide == panicSlide && !fired {
			fired = true
			panic("injected archival fault")
		}
	})
	sys.OnSlideEnd(func(rep SlideReport) {
		if !rep.Rewind {
			return
		}
		if q := rep.Faults; len(q) != 1 || q[0].Target != "store" || q[0].Cause != "panic" {
			t.Errorf("quarantine records after the store panic: %+v", q)
		}
		if _, err := sys.Snapshot(); !errors.Is(err, ErrWedged) {
			t.Errorf("Snapshot with store down: err=%v, want ErrWedged", err)
		}
	})
	rewindRun(t, sys, batches, 2, func(i int) { slide = i })
	sys.Drain(batches[len(batches)-1].Query)
	want, got := golden.Store().Table4Stats(), sys.Store().Table4Stats()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("store contents diverged after the rewind:\ngolden: %+v\nhealed: %+v", want, got)
	}
	if h := sys.Health(); h.PanicsRecovered != 1 || h.Restores != 1 {
		t.Errorf("health %s, want 1 panic / 1 restore", h)
	}
}

// TestFaultDuringReplayFences makes the recognizer fault again while
// the replay of its first fault is not yet past it: the second fault is
// not rewound, the recognizer is fenced as failed and State reads
// wedged, the slide reaches the sinks with its loss counted, later
// slides flow without it, and a restore re-admits it.
func TestFaultDuringReplayFences(t *testing.T) {
	cfg := defaultSystemConfig()
	batches, vessels, areas, sim := slideBatches(t, simConfig(60, 2), cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	sys := NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	const faultSlide = 4
	slide := 0
	SetRecognizerFaultHook(func() {
		if slide == faultSlide {
			panic("persistent fault")
		}
	})
	defer SetRecognizerFaultHook(nil)
	sink := &countingSink{}
	sys.AddAlertSink(sink)

	reports := rewindRun(t, sys, batches, 2, func(i int) { slide = i })
	h := sys.Health()
	if h.Failed != 1 || h.State() != "wedged" || h.Restores != 1 || h.PanicsRecovered != 2 {
		t.Errorf("health %s, want one rewind and the recognizer fenced", h)
	}
	if h.DropsByCause["watchdog"] == 0 {
		t.Error("the fenced recognizer's events must be counted lost")
	}
	if len(reports) != len(batches) || int(sink.slides.Load()) != len(batches) {
		t.Errorf("delivered %d slides (%d to the sink), the stream has %d", len(reports), sink.slides.Load(), len(batches))
	}
	if _, err := sys.Snapshot(); !errors.Is(err, ErrWedged) {
		t.Errorf("Snapshot with the recognizer fenced: %v, want ErrWedged", err)
	}

	// A restore supersedes the failure.
	golden := NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	snap, err := golden.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if h := sys.Health(); h.Failed != 0 || h.State() == "wedged" {
		t.Errorf("a restore should re-admit the fenced recognizer: %s", h)
	}
}

// TestDegradationLadder drives the ladder with a scripted backlog
// depth: it must climb one rung per EnterAfter overloaded slides up to
// L3 (toggling tracker shedding), hold, then descend once the overload
// clears, with every transition counted.
func TestDegradationLadder(t *testing.T) {
	cfg := defaultSystemConfig()
	depth := 0
	cfg.Degrade = &DegradeSpec{
		DepthHigh:  10,
		DepthFunc:  func() int { return depth },
		EnterAfter: 2,
		ExitAfter:  2,
	}
	sim := fleetsim.NewSimulator(simConfig(40, 1))
	sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	sys := NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()

	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	slideAt := func(i int) stream.Batch { return stream.Batch{Query: t0.Add(time.Duration(i) * cfg.Window.Slide)} }
	levels := []int{}
	i := 0
	run := func(n int) {
		for k := 0; k < n; k++ {
			sys.ProcessBatch(slideAt(i))
			levels = append(levels, sys.DegradationLevel())
			i++
		}
	}
	depth = 100
	run(7) // overloaded: climb 0,1,1,2,2,3,3 (one rung per 2 slides, capped at 3)
	wantUp := []int{0, 1, 1, 2, 2, 3, 3}
	if !reflect.DeepEqual(levels, wantUp) {
		t.Errorf("climb trajectory = %v, want %v", levels, wantUp)
	}
	depth = 0
	levels = levels[:0]
	run(7) // healthy: descend 3,2,2,1,1,0,0... ExitAfter=2 → first transition after 2 healthy slides
	wantDown := []int{3, 2, 2, 1, 1, 0, 0}
	if !reflect.DeepEqual(levels, wantDown) {
		t.Errorf("descent trajectory = %v, want %v", levels, wantDown)
	}
	h := sys.Health()
	if h.DegradationLevel != 0 {
		t.Errorf("final level = %d, want 0", h.DegradationLevel)
	}
	if h.DegradationTransitions != 6 {
		t.Errorf("transitions = %d, want 6 (3 up + 3 down)", h.DegradationTransitions)
	}
}
