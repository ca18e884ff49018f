package core

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/supervise"
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

// TestSelfHealRecognizerPanicQuarantineHeal injects a panic into the
// recognizer mid-run: the process must survive, the recognizer must
// land in quarantine with the panic captured, Snapshot must refuse with
// ErrWedged, and after Heal the replayed recognizer must deliver the
// quarantine window's alerts so the run's total output matches the
// fault-free golden run exactly.
func TestSelfHealRecognizerPanicQuarantineHeal(t *testing.T) {
	simCfg := simConfig(150, 5)
	cfg := defaultSystemConfig()
	cfg.SelfHeal = true
	batches, vessels, areas, sim := slideBatches(t, simCfg, cfg.Window.Slide)
	_, _, ports := AdaptWorld(sim)
	const panicSlide = 8
	healSlide := panicSlide + 2

	golden := NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	var goldenReports []SlideReport
	for _, b := range batches {
		goldenReports = append(goldenReports, golden.ProcessBatch(b))
	}

	sys := NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	slide := 0
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
		if i == panicSlide {
			h := sys.Health()
			if h.PanicsRecovered != 1 || h.Quarantined != 1 {
				t.Fatalf("after panic: health %+v, want 1 panic recovered / 1 quarantined", h)
			}
			if h.State() != "degraded" {
				t.Fatalf("state = %q, want degraded", h.State())
			}
			q := sys.Quarantined()
			if len(q) != 1 || q[0].Target != "recognizer" || q[0].Cause != "panic" ||
				!strings.Contains(q[0].Value, "injected recognizer fault") || q[0].Stack == "" {
				t.Fatalf("quarantine records: %+v", q)
			}
			if _, err := sys.Snapshot(); !errors.Is(err, ErrWedged) {
				t.Fatalf("Snapshot while quarantined: err=%v, want ErrWedged", err)
			}
		}
		if i == healSlide {
			if err := sys.Heal("recognizer"); err != nil {
				t.Fatalf("Heal: %v", err)
			}
			h := sys.Health()
			if h.Quarantined != 0 || h.Restores != 1 {
				t.Fatalf("after heal: %+v", h)
			}
			if _, err := sys.Snapshot(); err != nil {
				t.Fatalf("Snapshot after heal: %v", err)
			}
		}
	}
	want, got := alertKeys(goldenReports), alertKeys(reports)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("alert streams diverged after heal: golden %d alerts, faulted %d\ngolden: %v\nfaulted: %v",
			len(want), len(got), want, got)
	}
}

// TestSelfHealSupervisorRestoresStalledRecognizer wedges the single
// recognizer via the watchdog and lets a Supervisor attached to
// OnSlideEnd repair it automatically: ErrWedged must be transient, and
// the total alert output must match the golden run.
func TestSelfHealSupervisorRestoresStalledRecognizer(t *testing.T) {
	simCfg := simConfig(120, 4)
	cfg := defaultSystemConfig()
	cfg.SelfHeal = true
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
	sup := supervise.New(sys, supervise.Policy{InitialBackoff: time.Millisecond})
	sys.OnSlideEnd(func(SlideReport) { sup.Poll() })

	release := make(chan struct{})
	defer close(release)
	var once sync.Once
	// The hook runs on recognition goroutines that may outlive their
	// slide (that is the point of the watchdog), so the slide number
	// must be read atomically.
	var slide atomic.Int64
	SetRecognizerFaultHook(func() {
		if slide.Load() == stallSlide {
			once.Do(func() { <-release })
		}
	})
	defer SetRecognizerFaultHook(nil)

	var reports []SlideReport
	for i, b := range batches {
		slide.Store(int64(i))
		reports = append(reports, sys.ProcessBatch(b))
	}
	h := sys.Health()
	if h.WatchdogTrips != 1 {
		t.Errorf("WatchdogTrips = %d, want 1", h.WatchdogTrips)
	}
	if st := sup.Stats(); st.Repairs != 1 || st.GiveUps != 0 {
		t.Errorf("supervisor stats = %+v, want exactly one repair", st)
	}
	if h.Quarantined != 0 || h.Restores != 1 || h.State() != "ok" {
		t.Errorf("final health %+v (state %q), want fully recovered", h, h.State())
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Errorf("Snapshot after supervised repair: %v", err)
	}
	want, got := alertKeys(goldenReports), alertKeys(reports)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("alert streams diverged: golden %d alerts, supervised %d\ngolden: %v\nsupervised: %v",
			len(want), len(got), want, got)
	}
}

// TestSelfHealStorePanicQuarantineHeal panics the archival path: the
// store is quarantined (slides keep flowing), Heal replays the journal,
// and the final store contents equal the fault-free run's.
func TestSelfHealStorePanicQuarantineHeal(t *testing.T) {
	simCfg := simConfig(120, 4)
	cfg := defaultSystemConfig()
	cfg.SelfHeal = true
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
	sys.SetStoreFaultHook(func() {
		if slide == panicSlide {
			panic("injected archival fault")
		}
	})
	for i, b := range batches {
		slide = i
		sys.ProcessBatch(b)
		if i == panicSlide {
			q := sys.Quarantined()
			if len(q) != 1 || q[0].Target != "store" || q[0].Cause != "panic" {
				t.Fatalf("quarantine records after store panic: %+v", q)
			}
			if _, err := sys.Snapshot(); !errors.Is(err, ErrWedged) {
				t.Fatalf("Snapshot with store down: err=%v, want ErrWedged", err)
			}
		}
		if i == panicSlide+3 {
			if err := sys.Heal("store"); err != nil {
				t.Fatalf("Heal(store): %v", err)
			}
		}
	}
	sys.Drain(batches[len(batches)-1].Query)
	want, got := golden.Store().Table4Stats(), sys.Store().Table4Stats()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("store contents diverged after heal:\ngolden: %+v\nhealed: %+v", want, got)
	}
	if h := sys.Health(); h.PanicsRecovered != 1 || h.Restores != 1 {
		t.Errorf("health %+v, want 1 panic / 1 restore", h)
	}
}

// TestHealErrorsAndAbandon covers Heal's failure modes and the give-up
// path.
func TestHealErrorsAndAbandon(t *testing.T) {
	cfg := defaultSystemConfig()
	cfg.SelfHeal = true
	sim := fleetsim.NewSimulator(simConfig(40, 1))
	sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	sys := NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()

	if err := sys.Heal("recognizer"); err == nil || !strings.Contains(err.Error(), "not quarantined") {
		t.Errorf("healing a healthy recognizer: %v", err)
	}
	if err := sys.Heal("store"); err == nil {
		t.Error("healing a healthy store should fail")
	}
	if err := sys.Heal("nonsense"); err == nil {
		t.Error("unknown target should fail")
	}
	if err := sys.Heal("recognizer/0"); err == nil {
		t.Error("a band target should fail: there is one recognizer")
	}

	// Quarantine the single recognizer via an injected panic, then give
	// up on it: it must leave the repairable set and flip State to
	// wedged.
	SetRecognizerFaultHook(func() { panic("persistent fault") })
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sys.ProcessBatch(stream.Batch{Query: t0})
	SetRecognizerFaultHook(nil)
	if len(sys.Quarantined()) != 1 {
		t.Fatalf("quarantined: %+v", sys.Quarantined())
	}
	sys.Abandon("recognizer")
	if len(sys.Quarantined()) != 0 {
		t.Errorf("abandoned target still listed: %+v", sys.Quarantined())
	}
	h := sys.Health()
	if h.Failed != 1 || h.State() != "wedged" {
		t.Errorf("health after abandon: %+v (state %q), want failed=1 wedged", h, h.State())
	}
	// Later slides must keep flowing without the recognizer.
	sys.ProcessBatch(stream.Batch{Query: t0.Add(cfg.Window.Slide)})

	// A checkpoint restore supersedes the failure.
	golden := NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	snap, err := golden.Snapshot()
	if err != nil {
		t.Fatalf("golden snapshot: %v", err)
	}
	if err := sys.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if h := sys.Health(); h.Failed != 0 || h.State() == "wedged" {
		t.Errorf("restore should re-admit failed targets: %+v", h)
	}
	sys.ProcessBatch(stream.Batch{Query: t0.Add(2 * cfg.Window.Slide)})
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
