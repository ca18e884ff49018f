// Compression: trajectory synopsis quality on a single long voyage —
// the trade-off of the paper's Figures 8 and 9 in miniature. The same
// noisy voyage is compressed under each turn threshold Δθ and the
// program reports critical points kept, compression ratio, and RMSE of
// the reconstructed path; it also writes the Δθ = 15° synopsis as KML.
//
//	go run ./examples/compression
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/ais"
	"repro/internal/export"
	"repro/internal/geo"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// voyage simulates a noisy multi-leg voyage: Piraeus out through the
// Cyclades with several course changes, a half-hour hove-to, and home.
func voyage() []ais.Fix {
	rng := rand.New(rand.NewSource(7))
	start := time.Date(2009, 6, 20, 5, 0, 0, 0, time.UTC)
	legs := []struct {
		heading float64 // initial heading
		drift   float64 // degrees of heading change per minute (a curve)
		speedKn float64
		minutes int
	}{
		{140, 0, 12, 50},    // out of the Saronic gulf
		{140, -0.8, 14, 70}, // a long gentle arc toward the Cyclades
		{75, 0, 14, 60},     // threading the islands
		{75, 0, 0, 30},      // hove-to: engine trouble
		{80, 0.6, 10, 40},   // limping on along a slow curve
		{255, 0, 13, 90},    // the long way home
		{255, 1.1, 12, 60},  // curving onto the final approach
	}
	pos := geo.Point{Lon: 23.62, Lat: 37.90}
	t := start
	var fixes []ais.Fix
	for _, leg := range legs {
		heading := leg.heading
		for i := 0; i < leg.minutes; i++ {
			t = t.Add(time.Minute)
			heading += leg.drift
			pos = geo.Destination(pos, heading, geo.KnotsToMetersPerSecond(leg.speedKn)*60)
			// GPS jitter of ~10 m on every fix.
			noisy := geo.Destination(pos, rng.Float64()*360, rng.Float64()*10)
			fixes = append(fixes, ais.Fix{MMSI: 237004242, Pos: noisy, Time: t})
		}
	}
	return fixes
}

func main() {
	fixes := voyage()
	fmt.Printf("voyage: %d raw positions over %s\n\n",
		len(fixes), fixes[len(fixes)-1].Time.Sub(fixes[0].Time))
	fmt.Printf("%-6s %10s %12s %10s\n", "Δθ", "critical", "compression", "RMSE (m)")

	var kmlPoints []tracker.CriticalPoint
	for _, deg := range []float64{5, 10, 15, 20} {
		params := tracker.DefaultParams()
		params.TurnThresholdDeg = deg
		tr := tracker.NewSharded(params, stream.WindowSpec{Range: 24 * time.Hour, Slide: time.Hour}, 1)

		var points []tracker.CriticalPoint
		batcher := stream.NewBatcher(stream.NewSliceSource(fixes), time.Hour)
		for {
			b, ok := batcher.Next()
			if !ok {
				break
			}
			points = append(points, tr.Slide(b).Fresh...)
		}
		st := tr.Stats()
		_, maxErr := tracker.FleetRMSE(fixes, points)
		fmt.Printf("%-6.0f %10d %11.1f%% %10.1f\n",
			deg, st.Critical, st.CompressionRatio()*100, maxErr)
		if deg == 15 {
			kmlPoints = points
		}
	}

	f, err := os.Create("voyage.kml")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := export.WriteKML(f, "compressed voyage", kmlPoints); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("\nwrote the Δθ=15° synopsis to voyage.kml")
}
