package mod

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// TestStageAllocs is the archival path's allocation gate: on a warm
// store, staging into vessels whose staged arrays have spare capacity,
// and a Reconstruct that finds no stop, allocate nothing.
func TestStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	m := New(testPorts())
	// Warm up: 50 vessels each sail a 64-point leg and dock at Piraeus,
	// which leaves the stop staged in an array with room for 63 more.
	const vessels, leg = 50, 64
	var warm []tracker.CriticalPoint
	for v := uint32(0); v < vessels; v++ {
		for k := 0; k < leg; k++ {
			warm = append(warm, cp(100+v, 24+float64(k)*0.01, 36.5, time.Duration(k)*time.Minute, tracker.EventTurn))
		}
		warm = append(warm, cp(100+v, 23.63, 37.94, leg*time.Minute, tracker.EventStopStart))
	}
	m.Stage(warm)
	if trips := m.Reconstruct(); len(trips) != vessels {
		t.Fatalf("warm-up closed %d trips, want %d", len(trips), vessels)
	}
	slide := make([]tracker.CriticalPoint, vessels)
	at := time.Duration(leg+1) * time.Minute
	allocs := testing.AllocsPerRun(20, func() {
		for v := range slide {
			slide[v] = cp(100+uint32(v), 24, 36.6, at, tracker.EventSpeedChange)
		}
		at += time.Minute
		m.Stage(slide)
		if trips := m.Reconstruct(); len(trips) != 0 {
			t.Fatalf("a slide without stops closed %d trips", len(trips))
		}
	})
	if allocs != 0 {
		t.Errorf("Stage plus Reconstruct allocated %.1f times per slide, want 0", allocs)
	}
}

// archivalLife is one paper-scale life of tracker deltas: fleetsim's
// seed-1 fleet of N = 6425 vessels over 5 h through the tracking tier
// (ω = 1 h, β = 5 min, DefaultShards()), one delta per slide, then the
// end-of-stream drain's delta. It is built once per test binary.
var archivalLife = sync.OnceValue(func() (life struct {
	ports  []PortArea
	deltas [][]tracker.CriticalPoint
	points int
}) {
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = 6425
	cfg.Duration = 5 * time.Hour
	sim := fleetsim.NewSimulator(cfg)
	for _, p := range sim.World().Ports {
		life.ports = append(life.ports, PortArea{Name: p.Name, Poly: p.Poly})
	}
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	trk := tracker.NewSharded(tracker.DefaultParams(), window, tracker.DefaultShards())
	defer trk.Close()
	batcher := stream.NewBatcher(stream.NewSliceSource(sim.Run()), window.Slide)
	var last time.Time
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		life.deltas = append(life.deltas, slices.Clone(trk.Slide(b).Delta))
		last = b.Query
	}
	life.deltas = append(life.deltas, slices.Clone(trk.Slide(stream.Batch{Query: last.Add(10 * window.Range)}).Delta))
	for _, d := range life.deltas {
		life.points += len(d)
	}
	return life
})

// BenchmarkArchivalLife times the archival path over archivalLife: every
// slide's delta through Stage, Reconstruct and Load on a fresh store, as
// core.System runs them. One op is the whole life.
func BenchmarkArchivalLife(b *testing.B) {
	life := archivalLife()
	trips := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(life.ports)
		trips = 0
		for _, d := range life.deltas {
			m.Stage(d)
			done := m.Reconstruct()
			m.Load(done)
			trips += len(done)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*life.points), "ns/point")
	b.ReportMetric(float64(life.points), "points")
	b.ReportMetric(float64(trips), "trips")
}
