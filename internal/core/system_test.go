package core

import (
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// buildSystem runs the simulator and assembles the pipeline.
func buildSystem(t *testing.T, cfg fleetsim.Config, sysCfg Config) (*System, *fleetsim.Simulator, []SlideReport) {
	t.Helper()
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()
	if len(fixes) == 0 {
		t.Fatal("simulator produced no fixes")
	}
	vessels, areas, ports := AdaptWorld(sim)
	sys := NewSystem(sysCfg, vessels, areas, ports)
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), sysCfg.Window.Slide)
	reports := sys.RunAll(batcher)
	return sys, sim, reports
}

func defaultSystemConfig() Config {
	return Config{
		Window:  stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute},
		Tracker: tracker.DefaultParams(),
		Recognition: maritime.Config{
			Window: time.Hour,
		},
	}
}

func simConfig(vessels int, hours int) fleetsim.Config {
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = vessels
	cfg.Duration = time.Duration(hours) * time.Hour
	return cfg
}

func TestEndToEndPipeline(t *testing.T) {
	sys, _, reports := buildSystem(t, simConfig(150, 5), defaultSystemConfig())
	if len(reports) == 0 {
		t.Fatal("no slides processed")
	}
	stats := sys.Tracker().Stats()
	if stats.FixesIn == 0 || stats.Critical == 0 {
		t.Fatalf("tracker stats empty: %+v", stats)
	}
	ratio := stats.CompressionRatio()
	if ratio < 0.3 || ratio >= 1 {
		t.Errorf("compression ratio = %.3f, expected meaningful reduction", ratio)
	}
	var alerts int
	for _, r := range reports {
		alerts += len(r.Alerts)
	}
	if alerts == 0 {
		t.Error("no complex events recognized over a 5-hour fleet run")
	}
}

func TestIllegalShippingTruthRecall(t *testing.T) {
	sys, sim, reports := buildSystem(t, simConfig(150, 6), defaultSystemConfig())
	_ = sys
	horizon := sim.Truth()
	// Collect recognized illegalShipping (area, time) pairs.
	type hit struct {
		area string
		at   time.Time
	}
	var recognized []hit
	for _, r := range reports {
		for _, a := range r.Alerts {
			if a.CE == maritime.CEIllegalShipping {
				recognized = append(recognized, hit{area: a.AreaID, at: a.Time})
			}
		}
	}
	// Every scripted transmitter-off crossing whose gap completed well
	// within the run must be recognized at its protected area.
	runEnd := sim.Truth()[0].Start // placeholder; recompute below
	_ = runEnd
	want, got := 0, 0
	for _, ev := range horizon {
		if ev.Kind != fleetsim.TruthGapInProtected {
			continue
		}
		if ev.End.After(time.Date(2009, 6, 1, 5, 30, 0, 0, time.UTC)) {
			continue // gap not fully inside the run
		}
		want++
		for _, h := range recognized {
			if h.area == ev.AreaID && h.at.After(ev.Start.Add(-15*time.Minute)) &&
				h.at.Before(ev.End.Add(15*time.Minute)) {
				got++
				break
			}
		}
	}
	if want == 0 {
		t.Skip("no completed transmitter-off crossings in this run")
	}
	// Recall need not be perfect: a spontaneous noise gap can overlap a
	// scripted silence, leaving the last known position genuinely far
	// from the protected area — rule (5) can only fire on where the gap
	// started. Most crossings must still be recognized.
	if got*2 < want {
		t.Errorf("illegalShipping recall %d/%d scripted crossings", got, want)
	}
}

func TestSuspiciousAreaTruthRecall(t *testing.T) {
	sys, sim, reports := buildSystem(t, simConfig(150, 6), defaultSystemConfig())
	_ = sim
	found := false
	for _, r := range reports {
		for _, a := range r.Alerts {
			if a.CE == maritime.CESuspicious {
				found = true
			}
		}
	}
	if !found {
		// The intervals may also be inspected directly.
		for i := 0; i < 2; i++ {
			id := []string{"watch-00", "watch-01"}[i]
			if len(holdsFor(sys, maritime.CESuspicious, id)) > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("scripted loitering group never recognized as suspicious")
	}
}

func TestDangerousAndIllegalFishingRecognized(t *testing.T) {
	_, _, reports := buildSystem(t, simConfig(200, 6), defaultSystemConfig())
	byCE := make(map[string]int)
	for _, r := range reports {
		for _, a := range r.Alerts {
			byCE[a.CE]++
		}
	}
	if byCE[maritime.CEDangerousShipping] == 0 {
		t.Error("no dangerousShipping recognized despite scripted shoal runners")
	}
	if byCE[maritime.CEIllegalFishing] == 0 {
		t.Error("no illegalFishing recognized despite scripted forbidden-ground trawlers")
	}
}

func TestArchivalProducesTrips(t *testing.T) {
	// Ferries shuttling for 10 hours with a 1-hour window: port stops
	// expire from the window and must segment into trips.
	sysCfg := defaultSystemConfig()
	sys, _, _ := buildSystem(t, simConfig(150, 10), sysCfg)
	t4 := sys.Store().Table4Stats()
	if t4.Trips == 0 {
		t.Fatal("no trips reconstructed from a 10-hour ferry-heavy run")
	}
	if t4.PointsInTrajectories == 0 {
		t.Error("no points assigned to trajectories")
	}
	if t4.AvgDistanceMeters <= 0 || t4.AvgTravelTime <= 0 {
		t.Errorf("degenerate trip stats: %+v", t4)
	}
}

func TestTimingsPopulated(t *testing.T) {
	_, _, reports := buildSystem(t, simConfig(80, 3), defaultSystemConfig())
	var total Timings
	for _, r := range reports {
		total.Tracking += r.Timings.Tracking
		total.Staging += r.Timings.Staging
		total.Reconstruction += r.Timings.Reconstruction
		total.Loading += r.Timings.Loading
		total.Recognition += r.Timings.Recognition
		total.Wall += r.Timings.Wall
	}
	if total.Tracking == 0 {
		t.Error("tracking timing never measured")
	}
	// This configuration runs its stages one after another, so the
	// measured wall time covers every one of them.
	if total.Wall < total.busy() {
		t.Errorf("Wall %s is less than the serial stages' sum %s", total.Wall, total.busy())
	}
}

func TestDisableFlags(t *testing.T) {
	sysCfg := defaultSystemConfig()
	sysCfg.DisableRecognition = true
	sysCfg.DisableArchival = true
	sys, _, reports := buildSystem(t, simConfig(60, 2), sysCfg)
	if sys.Recognizer() != nil {
		t.Error("recognizer built despite DisableRecognition")
	}
	for _, r := range reports {
		if len(r.Alerts) != 0 {
			t.Fatal("alerts produced with recognition disabled")
		}
	}
	if sys.Store().StagedCount() != 0 || len(sys.Store().Trips()) != 0 {
		t.Error("archival ran despite DisableArchival")
	}
}

// TestNewSystemPanicsOnSpatialFacts pins that the pipeline refuses the
// precomputed-spatial-facts mode: it generates no facts, so that mode
// would silently recognize nothing spatial.
func TestNewSystemPanicsOnSpatialFacts(t *testing.T) {
	cfg := defaultSystemConfig()
	cfg.Recognition.Mode = maritime.SpatialFacts
	defer func() {
		if recover() == nil {
			t.Error("NewSystem accepted maritime.SpatialFacts")
		}
	}()
	NewSystem(cfg, nil, nil, nil)
}
