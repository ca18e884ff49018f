package tracker

import (
	"math"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/stream"
)

func TestSynopsisAtInterpolates(t *testing.T) {
	syn := Synopsis{
		{Pos: geo.Point{Lon: 24, Lat: 37}, Time: t0},
		{Pos: geo.Point{Lon: 25, Lat: 38}, Time: t0.Add(time.Hour)},
	}
	p, ok := syn.At(t0.Add(30 * time.Minute))
	if !ok {
		t.Fatal("!ok")
	}
	if d := geo.Haversine(p, geo.Point{Lon: 24.5, Lat: 37.5}); d > 1 {
		t.Errorf("midpoint off by %.1f m", d)
	}
	// Clamping outside the extent.
	if p, _ := syn.At(t0.Add(-time.Hour)); p != syn[0].Pos {
		t.Errorf("before extent = %v", p)
	}
	if p, _ := syn.At(t0.Add(2 * time.Hour)); p != syn[1].Pos {
		t.Errorf("after extent = %v", p)
	}
	if _, ok := (Synopsis{}).At(t0); ok {
		t.Error("empty synopsis returned ok")
	}
}

func TestRMSEZeroWhenSynopsisKeepsEverything(t *testing.T) {
	fixes := legFrom(nil, geo.Point{Lon: 24, Lat: 37.5}, 90, 12, 30, 30*time.Second)
	syn := make(Synopsis, len(fixes))
	for i, f := range fixes {
		syn[i] = CriticalPoint{MMSI: f.MMSI, Pos: f.Pos, Time: f.Time}
	}
	if e := RMSE(fixes, syn); e > 1e-9 {
		t.Errorf("RMSE = %v, want 0", e)
	}
}

func TestRMSESmallForStraightCourse(t *testing.T) {
	// A straight constant-speed course compressed to its endpoints must
	// reconstruct almost exactly (constant-velocity interpolation).
	fixes := legFrom(nil, geo.Point{Lon: 24, Lat: 37.5}, 77, 14, 60, 30*time.Second)
	syn := Synopsis{
		{Pos: fixes[0].Pos, Time: fixes[0].Time},
		{Pos: fixes[len(fixes)-1].Pos, Time: fixes[len(fixes)-1].Time},
	}
	if e := RMSE(fixes, syn); e > 5 {
		t.Errorf("straight-course RMSE = %.2f m, want < 5", e)
	}
}

func TestRMSECapturesCutCorner(t *testing.T) {
	// An L-shaped course compressed to its endpoints cuts the corner and
	// must show a large deviation; keeping the corner fixes it.
	a := legFrom(nil, geo.Point{Lon: 24, Lat: 37.5}, 0, 15, 20, time.Minute)
	fixes := legFrom(a, geo.Point{}, 90, 15, 20, time.Minute)
	endpoints := Synopsis{
		{Pos: fixes[0].Pos, Time: fixes[0].Time},
		{Pos: fixes[len(fixes)-1].Pos, Time: fixes[len(fixes)-1].Time},
	}
	corner := Synopsis{
		endpoints[0],
		{Pos: fixes[19].Pos, Time: fixes[19].Time},
		endpoints[1],
	}
	eCut := RMSE(fixes, endpoints)
	eKept := RMSE(fixes, corner)
	if eCut < 1000 {
		t.Errorf("corner-cutting RMSE = %.0f m, expected kilometers", eCut)
	}
	if eKept > eCut/10 {
		t.Errorf("keeping the corner should slash RMSE: cut=%.0f kept=%.0f", eCut, eKept)
	}
}

func TestFleetRMSEAndTrackerTogether(t *testing.T) {
	// End to end: track a course with a turn, then reconstruct from the
	// tracker's own critical points. Average error must stay far below
	// the paper's 16 m bound scaled to our noise-free fixture.
	a := legFrom(nil, geo.Point{Lon: 24, Lat: 37.5}, 45, 13, 30, 30*time.Second)
	fixes := legFrom(a, geo.Point{}, 100, 13, 30, 30*time.Second)
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	avg, max := FleetRMSE(fixes, points)
	if avg > 30 {
		t.Errorf("avg RMSE = %.1f m, want <= 30", avg)
	}
	if max > 60 {
		t.Errorf("max RMSE = %.1f m, want <= 60", max)
	}
}

func TestSplitByVesselSorts(t *testing.T) {
	pts := []CriticalPoint{
		{MMSI: 1, Time: t0.Add(2 * time.Minute)},
		{MMSI: 2, Time: t0},
		{MMSI: 1, Time: t0},
	}
	m := SplitByVessel(pts)
	if len(m) != 2 || len(m[1]) != 2 || len(m[2]) != 1 {
		t.Fatalf("split = %v", m)
	}
	if !m[1][0].Time.Equal(t0) {
		t.Error("per-vessel synopsis not sorted")
	}
}

func TestRMSEEmptyInputs(t *testing.T) {
	if RMSE(nil, Synopsis{{}}) != 0 {
		t.Error("nil originals")
	}
	if RMSE([]ais.Fix{{}}, nil) != 0 {
		t.Error("nil synopsis")
	}
}

// BenchmarkTrackerIngest measures the per-fix state machine alone: one
// vessel's 10,000-fix leg ingested fix by fix into a fresh shard.
func BenchmarkTrackerIngest(b *testing.B) {
	fixes := legFrom(nil, geo.Point{Lon: 24, Lat: 37.5}, 90, 12, 10000, 30*time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := NewSharded(DefaultParams(), stream.WindowSpec{Range: 24 * time.Hour, Slide: time.Hour}, 1)
		sh := tr.shards[0]
		b.StartTimer()
		for _, f := range fixes {
			sh.ingestFix(f.MMSI, f.Pos.Lon, f.Pos.Lat, f.Time.UnixNano())
		}
	}
}

func TestDistanceBetween(t *testing.T) {
	// A straight 12-knot hour: distance over the full window is one
	// hour at 12 knots ≈ 22.2 km; over half the window, half that.
	fixes := legFrom(nil, geo.Point{Lon: 24, Lat: 37.5}, 90, 12, 60, time.Minute)
	syn := make(Synopsis, 0, len(fixes))
	for i, f := range fixes {
		if i%10 == 0 || i == len(fixes)-1 { // sparse synopsis
			syn = append(syn, CriticalPoint{MMSI: f.MMSI, Pos: f.Pos, Time: f.Time})
		}
	}
	full := syn.DistanceBetween(fixes[0].Time, fixes[len(fixes)-1].Time)
	wantFull := geo.KnotsToMetersPerSecond(12) * 59 * 60
	if math.Abs(full-wantFull) > wantFull*0.02 {
		t.Errorf("full-hour distance = %.0f m, want ≈%.0f", full, wantFull)
	}
	half := syn.DistanceBetween(fixes[0].Time, fixes[len(fixes)/2].Time)
	if math.Abs(half-full/2) > full*0.05 {
		t.Errorf("half-window distance = %.0f m, want ≈%.0f", half, full/2)
	}
	// Degenerate ranges.
	if d := syn.DistanceBetween(fixes[5].Time, fixes[5].Time); d != 0 {
		t.Errorf("zero-length window distance = %v", d)
	}
	if d := (Synopsis{}).DistanceBetween(fixes[0].Time, fixes[9].Time); d != 0 {
		t.Errorf("empty synopsis distance = %v", d)
	}
}
