package expbench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// ScalingRow is one point of the fleet-size scaling sweep: how the two
// online components cost out as the monitored fleet grows — the
// paper's central claim ("maritime surveillance systems need to scale
// to the increasing traffic activity"; "our results confirm the
// scalability ... of the proposed system").
type ScalingRow struct {
	Vessels      int
	Fixes        int
	TrackingMean time.Duration // mean tracking cost per slide (ω=1h, β=10min)
	RecogMean    time.Duration // mean CE recognition per query (ω=2h, β=1h)
	MEs          int           // movement events produced
}

// ScalingSweep measures tracking and recognition cost across fleet
// sizes. Expected shape: roughly linear growth in N for both
// components, since per-vessel state is independent and recognition
// cost follows the ME volume.
func ScalingSweep(sizes []int, hours int, seed int64) []ScalingRow {
	if len(sizes) == 0 {
		sizes = []int{250, 500, 1000, 2000}
	}
	var rows []ScalingRow
	for _, n := range sizes {
		wl := BuildWorkload(n, time.Duration(hours)*time.Hour, seed)
		row := ScalingRow{Vessels: n, Fixes: len(wl.Fixes)}

		// Tracking cost.
		spec := stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute}
		tr := tracker.NewSharded(tracker.DefaultParams(), spec, 1)
		batcher := stream.NewBatcher(stream.NewSliceSource(wl.Fixes), spec.Slide)
		var total time.Duration
		slides := 0
		for {
			b, ok := batcher.Next()
			if !ok {
				break
			}
			t0 := time.Now()
			tr.Slide(b)
			total += time.Since(t0)
			slides++
		}
		if slides > 0 {
			row.TrackingMean = total / time.Duration(slides)
		}

		// Recognition cost over the derived ME stream.
		slidesME, queries := MESlides(wl, time.Hour)
		for _, mes := range slidesME {
			row.MEs += len(mes)
		}
		rec := maritime.NewRecognizer(maritime.Config{Window: 2 * time.Hour}, wl.Vessels, wl.Areas)
		total = 0
		for i, mes := range slidesME {
			t0 := time.Now()
			rec.Advance(queries[i], mes, nil)
			total += time.Since(t0)
		}
		if len(slidesME) > 0 {
			row.RecogMean = total / time.Duration(len(slidesME))
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteScaling renders the rows.
func WriteScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "Scaling sweep — online cost vs fleet size N")
	fmt.Fprintf(w, "%-8s %10s %10s %16s %18s\n",
		"N", "fixes", "MEs", "tracking/slide", "recognition/query")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %10d %10d %16s %18s\n",
			r.Vessels, r.Fixes, r.MEs,
			r.TrackingMean.Round(time.Microsecond), r.RecogMean.Round(time.Microsecond))
	}
}
