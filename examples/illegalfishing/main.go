// Illegal fishing: a hand-built scenario showing the paper's Scenario 2
// directly against the public API — a designated fishing vessel trawls
// inside a forbidden-fishing reef while an identical non-fishing vessel
// does the same nearby; only the fisher raises illegalFishing, and the
// CE's maximal interval tracks the trawl.
//
//	go run ./examples/illegalfishing
package main

import (
	"fmt"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/maritime"
	"repro/internal/rtec"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// trawl produces a slow zigzag track (2.8 knots) starting at origin.
func trawl(mmsi uint32, origin geo.Point, start time.Time, n int) []ais.Fix {
	fixes := make([]ais.Fix, 0, n)
	pos, heading := origin, 70.0
	t := start
	for i := 0; i < n; i++ {
		t = t.Add(time.Minute)
		heading += []float64{25, -40, 15, -10}[i%4]
		pos = geo.Destination(pos, heading, geo.KnotsToMetersPerSecond(2.8)*60)
		fixes = append(fixes, ais.Fix{MMSI: mmsi, Pos: pos, Time: t})
	}
	return fixes
}

// transit produces a straight 12-knot approach ending at dest.
func transit(mmsi uint32, dest geo.Point, start time.Time, n int) []ais.Fix {
	step := geo.KnotsToMetersPerSecond(12) * 60
	fixes := make([]ais.Fix, n)
	for i := 0; i < n; i++ {
		back := float64(n-1-i) * step
		fixes[i] = ais.Fix{
			MMSI: mmsi,
			Pos:  geo.Destination(dest, 250, back), // approach from the north-east
			Time: start.Add(time.Duration(i) * time.Minute),
		}
	}
	return fixes
}

func main() {
	start := time.Date(2009, 7, 14, 4, 0, 0, 0, time.UTC)
	reef := geo.Point{Lon: 25.30, Lat: 36.10}

	// Static knowledge: the reef is a forbidden fishing area; vessel
	// 237001001 is registered as a fishing boat, 237002002 is not.
	areas := []maritime.Area{{
		ID:   "kalogeroi-reef",
		Kind: maritime.KindForbiddenFishing,
		Poly: geo.MustPolygon([]geo.Point{
			{Lon: reef.Lon - 0.04, Lat: reef.Lat - 0.03},
			{Lon: reef.Lon + 0.04, Lat: reef.Lat - 0.03},
			{Lon: reef.Lon + 0.05, Lat: reef.Lat + 0.03},
			{Lon: reef.Lon - 0.05, Lat: reef.Lat + 0.03},
		}),
	}}
	vessels := []maritime.Vessel{
		{MMSI: 237001001, Fishing: true, DraftM: 2.5},
		{MMSI: 237002002, Fishing: false, DraftM: 2.5},
	}

	// Both vessels approach the reef and trawl across it for 40 minutes.
	var fixes []ais.Fix
	fixes = append(fixes, transit(237001001, reef, start, 20)...)
	fixes = append(fixes, trawl(237001001, reef, start.Add(20*time.Minute), 40)...)
	east := geo.Destination(reef, 90, 1200)
	fixes = append(fixes, transit(237002002, east, start.Add(2*time.Minute), 20)...)
	fixes = append(fixes, trawl(237002002, east, start.Add(22*time.Minute), 40)...)

	// Trajectory detection: the trawl shows up as a lowSpeed episode.
	tr := tracker.NewSharded(tracker.DefaultParams(), stream.WindowSpec{
		Range: 2 * time.Hour, Slide: 10 * time.Minute,
	}, 1)
	rec := maritime.NewRecognizer(maritime.Config{Window: 2 * time.Hour},
		vessels, areas)

	batcher := stream.NewBatcher(sortSource(fixes), 10*time.Minute)
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		res := tr.Slide(b)
		snap := rec.Advance(b.Query, maritime.MEStream(res.Fresh), nil)
		for _, a := range snap.Alerts {
			fmt.Println("ALERT:", a)
		}
	}

	key := rtec.FluentKey{
		Fluent: maritime.CEIllegalFishing, Entity: "kalogeroi-reef", Value: rtec.True,
	}
	fmt.Println("\nholdsFor(illegalFishing(kalogeroi-reef)=true):")
	for _, iv := range rec.Engine().HoldsFor(key) {
		since := time.Unix(iv.Since, 0).UTC()
		until := "ongoing"
		if !iv.Open() {
			until = time.Unix(iv.Until, 0).UTC().Format("15:04:05")
		}
		fmt.Printf("  (%s, %s]\n", since.Format("15:04:05"), until)
	}
	fmt.Println("\nthe non-fishing vessel 237002002 performed the same manoeuvre and raised nothing")
}

// sortSource wraps the fixes in time order for the batcher.
func sortSource(fixes []ais.Fix) *stream.SliceSource {
	sorted := append([]ais.Fix(nil), fixes...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Time.Before(sorted[j-1].Time); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return stream.NewSliceSource(sorted)
}
