package fleetsim

import (
	"testing"
	"time"

	"repro/internal/geo"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Vessels = 80
	cfg.Duration = 3 * time.Hour
	return cfg
}

func TestSimulatorDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := NewSimulator(cfg).Run()
	b := NewSimulator(cfg).Run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fix %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSimulatorStreamSorted(t *testing.T) {
	fixes := NewSimulator(smallConfig()).Run()
	if len(fixes) == 0 {
		t.Fatal("no fixes generated")
	}
	for i := 1; i < len(fixes); i++ {
		if fixes[i].Time.Before(fixes[i-1].Time) {
			t.Fatalf("stream not sorted at %d", i)
		}
	}
}

func TestSimulatorFixesWithinRun(t *testing.T) {
	cfg := smallConfig()
	fixes := NewSimulator(cfg).Run()
	for _, f := range fixes {
		if f.Time.Before(cfg.Start) || f.Time.After(cfg.Start.Add(cfg.Duration)) {
			t.Fatalf("fix outside run window: %v", f.Time)
		}
		if !f.Pos.Valid() {
			t.Fatalf("invalid position: %v", f.Pos)
		}
	}
}

func TestSimulatorReportingRate(t *testing.T) {
	cfg := smallConfig()
	cfg.Vessels = 200
	fixes := NewSimulator(cfg).Run()
	perVessel := make(map[uint32]int)
	for _, f := range fixes {
		perVessel[f.MMSI]++
	}
	if len(perVessel) < cfg.Vessels/2 {
		t.Errorf("only %d of %d vessels ever reported", len(perVessel), cfg.Vessels)
	}
	// The paper's dataset averages one report per ~2 minutes of activity.
	// Check the fleet-wide mean is within a loose band around that.
	total := 0
	for _, n := range perVessel {
		total += n
	}
	meanPerHour := float64(total) / float64(len(perVessel)) / cfg.Duration.Hours()
	if meanPerHour < 8 || meanPerHour > 80 {
		t.Errorf("mean reports/vessel/hour = %.1f, want within [8, 80]", meanPerHour)
	}
}

func TestSimulatorTruthEventsPlanted(t *testing.T) {
	cfg := smallConfig()
	sim := NewSimulator(cfg)
	counts := make(map[TruthKind]int)
	for _, ev := range sim.Truth() {
		counts[ev.Kind]++
		if ev.End.Before(ev.Start) {
			t.Errorf("truth event %v ends before it starts", ev)
		}
	}
	if counts[TruthLoiter] < 4 {
		t.Errorf("loiter truth events = %d, want >= 4 (a recognizable group)", counts[TruthLoiter])
	}
	if counts[TruthGapInProtected] == 0 {
		t.Error("no gap-in-protected truth events")
	}
	if counts[TruthShallowPass] == 0 {
		t.Error("no shallow-pass truth events")
	}
}

func TestSmugglerGoesSilentNearProtectedArea(t *testing.T) {
	cfg := smallConfig()
	sim := NewSimulator(cfg)
	fixes := sim.Run()
	byMMSI := make(map[uint32][]int64)
	for _, f := range fixes {
		byMMSI[f.MMSI] = append(byMMSI[f.MMSI], f.Time.Unix())
	}
	found := false
	for _, ev := range sim.Truth() {
		if ev.Kind != TruthGapInProtected {
			continue
		}
		// The vessel must have no report strictly inside the silence.
		for _, ts := range byMMSI[ev.MMSI] {
			if ts > ev.Start.Unix() && ts < ev.End.Unix() {
				t.Errorf("smuggler %d reported during scripted silence", ev.MMSI)
			}
		}
		found = true
	}
	if !found {
		t.Skip("no smuggler completed a crossing within the short run")
	}
}

func TestWorldGeometry(t *testing.T) {
	w := NewWorld(7, 35)
	if len(w.Areas) != 35 {
		t.Fatalf("areas = %d, want 35", len(w.Areas))
	}
	kinds := make(map[AreaKind]int)
	for _, a := range w.Areas {
		kinds[a.Kind]++
		if !w.Bounds.Intersects(a.Poly.BBox()) {
			t.Errorf("area %s outside region bounds", a.ID)
		}
		if a.Kind == AreaShallow && a.MinDepthM <= 0 {
			t.Errorf("shallow area %s missing depth", a.ID)
		}
	}
	for _, k := range []AreaKind{AreaProtected, AreaForbiddenFishing, AreaShallow} {
		if kinds[k] < 10 {
			t.Errorf("kind %v has %d areas, want >= 10", k, kinds[k])
		}
	}
	if len(w.Ports) < 20 {
		t.Errorf("ports = %d", len(w.Ports))
	}
}

func TestWorldPortAt(t *testing.T) {
	w := NewWorld(7, 35)
	p := w.Ports[0]
	if got := w.PortAt(p.Center); got == nil || got.Name != p.Name {
		t.Errorf("PortAt(center of %s) = %v", p.Name, got)
	}
	if got := w.PortAt(geo.Point{Lon: 26.0, Lat: 36.0}); got != nil {
		t.Errorf("open water resolved to port %s", got.Name)
	}
}

func TestFleetMix(t *testing.T) {
	sim := NewSimulator(Config{Seed: 3, Vessels: 400, NumAreas: 35,
		Start: time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC), Duration: time.Hour})
	byBehavior := make(map[Behavior]int)
	fishing := 0
	seen := make(map[uint32]bool)
	for _, v := range sim.Fleet() {
		if seen[v.MMSI] {
			t.Fatalf("duplicate MMSI %d", v.MMSI)
		}
		seen[v.MMSI] = true
		byBehavior[v.Behavior]++
		if v.Fishing {
			fishing++
		}
	}
	for _, b := range []Behavior{BehaviorDocked, BehaviorFerry, BehaviorVoyager, BehaviorPassing, BehaviorFisher} {
		if byBehavior[b] == 0 {
			t.Errorf("no vessels with behavior %v", b)
		}
	}
	if fishing == 0 {
		t.Error("no designated fishing vessels")
	}
	if byBehavior[BehaviorLoiterer] < 4 {
		t.Errorf("loiterers = %d, want >= 4", byBehavior[BehaviorLoiterer])
	}
}

func TestItineraryPosMonotoneTime(t *testing.T) {
	cfg := smallConfig()
	sim := NewSimulator(cfg)
	// Scripted positions must be continuous: successive samples 10 s
	// apart can be at most ~150 m apart at 30 knots.
	sim.buildItineraries()
	it := sim.itins[0]
	prev := it.pos(cfg.Start)
	for dt := 10 * time.Second; dt < cfg.Duration; dt += 10 * time.Second {
		cur := it.pos(cfg.Start.Add(dt))
		if geo.Haversine(prev, cur) > 200 {
			t.Fatalf("scripted path jumps %0.f m in 10 s", geo.Haversine(prev, cur))
		}
		prev = cur
	}
}

func TestAreaKindAndBehaviorStrings(t *testing.T) {
	if AreaProtected.String() != "protected" || AreaShallow.String() != "shallow" {
		t.Error("AreaKind.String broken")
	}
	if BehaviorDocked.String() != "docked" || BehaviorSmuggler.String() != "smuggler" {
		t.Error("Behavior.String broken")
	}
	if TypeFishing.String() != "fishing" {
		t.Error("VesselType.String broken")
	}
	if TruthLoiter.String() != "loiter" {
		t.Error("TruthKind.String broken")
	}
}

func TestScriptedPos(t *testing.T) {
	cfg := smallConfig()
	sim := NewSimulator(cfg)
	// A known vessel's scripted position must be close to its reported
	// fixes (within noise scale).
	fixes := sim.Run()
	checked := 0
	for _, f := range fixes {
		truth, ok := sim.ScriptedPos(f.MMSI, f.Time)
		if !ok {
			t.Fatalf("no scripted position for %d", f.MMSI)
		}
		if d := geo.Haversine(truth, f.Pos); d > 5000 {
			t.Fatalf("fix %.0f m from scripted truth (outliers are capped below this)", d)
		}
		checked++
		if checked > 500 {
			break
		}
	}
	if _, ok := sim.ScriptedPos(42, cfg.Start); ok {
		t.Error("scripted position for unknown MMSI")
	}
}

func TestLoiterSpotsExposed(t *testing.T) {
	sim := NewSimulator(smallConfig())
	spots := sim.LoiterSpots()
	if len(spots) != 2 {
		t.Fatalf("loiter spots = %d, want 2", len(spots))
	}
	// Loiter truth events must be near one of the spots.
	for _, ev := range sim.Truth() {
		if ev.Kind != TruthLoiter {
			continue
		}
		near := false
		for _, s := range spots {
			if geo.Haversine(ev.Near, s) < 1000 {
				near = true
			}
		}
		if !near {
			t.Errorf("loiter truth %v not near any exposed spot", ev.MMSI)
		}
	}
}
