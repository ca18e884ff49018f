// Protected area: the paper's Scenario 3 — a tanker "breaks down" its
// transmitter while cutting through a marine park, and Scenario 4 — the
// same deep-draft tanker then creeps over a shoal. The communication
// gap near the park raises illegalShipping; the slow pass over waters
// shallower than its draft raises dangerousShipping.
//
//	go run ./examples/protectedarea
package main

import (
	"fmt"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

func main() {
	start := time.Date(2009, 8, 2, 22, 0, 0, 0, time.UTC)
	park := geo.Point{Lon: 23.90, Lat: 39.15}   // the marine park
	shoal := geo.Point{Lon: 24.145, Lat: 39.15} // the shoal further east

	areas := []maritime.Area{
		{
			ID: "alonnisos-marine-park", Kind: maritime.KindProtected,
			Poly: square(park, 0.06),
		},
		{
			ID: "psathoura-shoal", Kind: maritime.KindShallow,
			Poly: square(shoal, 0.03), MinDepthM: 6,
		},
	}
	vessels := []maritime.Vessel{
		{MMSI: 237009999, Fishing: false, DraftM: 11}, // a laden tanker
	}

	// The tanker sails east at 13 knots toward the park, goes silent
	// 2 km short of it, reappears 25 minutes later on the far side, then
	// slows to 3 knots over the shoal.
	var fixes []ais.Fix
	t := start
	pos := geo.Destination(park, 270, 18000) // 18 km west of the park
	emit := func(speedKn float64, minutes int, silent bool) {
		for i := 0; i < minutes; i++ {
			t = t.Add(time.Minute)
			pos = geo.Destination(pos, 90, geo.KnotsToMetersPerSecond(speedKn)*60)
			if !silent {
				fixes = append(fixes, ais.Fix{MMSI: 237009999, Pos: pos, Time: t})
			}
		}
	}
	emit(13, 40, false) // approach: last report ~2 km west of the park
	emit(13, 25, true)  // transmitter "failure" while crossing
	emit(13, 30, false) // reappears east of the park
	emit(3, 25, false)  // creeping over the shoal
	emit(13, 20, false) // back to cruise

	tr := tracker.NewSharded(tracker.DefaultParams(), stream.WindowSpec{
		Range: 3 * time.Hour, Slide: 5 * time.Minute,
	}, 1)
	rec := maritime.NewRecognizer(maritime.Config{Window: 3 * time.Hour},
		vessels, areas)

	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), 5*time.Minute)
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		res := tr.Slide(b)
		for _, cp := range res.Fresh {
			switch cp.Type {
			case tracker.EventGapStart, tracker.EventGapEnd,
				tracker.EventSlowStart, tracker.EventSlowEnd:
				fmt.Printf("ME: %s\n", cp)
			}
		}
		snap := rec.Advance(b.Query, maritime.MEStream(res.Fresh), nil)
		for _, a := range snap.Alerts {
			fmt.Println("ALERT:", a)
		}
	}
}

func square(c geo.Point, half float64) *geo.Polygon {
	return geo.MustPolygon([]geo.Point{
		{Lon: c.Lon - half, Lat: c.Lat - half},
		{Lon: c.Lon + half, Lat: c.Lat - half},
		{Lon: c.Lon + half, Lat: c.Lat + half},
		{Lon: c.Lon - half, Lat: c.Lat + half},
	})
}
