package expbench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/stream"
	"repro/internal/tracker"
)

// Fig7Row is one point of the paper's Figure 7: mean online tracking
// latency per slide when the stream is admitted in chunks matching an
// inflated arrival rate ρ, with ω = 10 min and β = 1 min.
type Fig7Row struct {
	Rate     int           // ρ in positions/second
	ChunkLen int           // positions admitted per 1-minute slide
	Slides   int           // slides measured
	Mean     time.Duration // mean tracking cost per slide
}

// Fig7 reproduces the arrival-rate stress test: the stream is
// replicated with MMSI-shifted copies until at least minSlides chunks
// of ρ·β positions exist, then per-slide tracking cost is measured.
// The paper's shape: latency grows with ρ but stays well below the
// one-minute slide period even at 10,000 positions/second.
func Fig7(wl *Workload, rates []int, maxReps, minSlides int) []Fig7Row {
	if len(rates) == 0 {
		rates = []int{1000, 2000, 5000, 10000}
	}
	window := stream.WindowSpec{Range: 10 * time.Minute, Slide: time.Minute}
	var rows []Fig7Row
	for _, rate := range rates {
		chunk := rate * 60
		// Replicate the fleet until the stream covers minSlides chunks.
		reps := (chunk*minSlides + len(wl.Fixes) - 1) / len(wl.Fixes)
		if reps < 1 {
			reps = 1
		}
		if reps > maxReps {
			reps = maxReps
		}
		fixes := Replicate(wl.Fixes, reps)

		tr := tracker.NewSharded(tracker.DefaultParams(), window, 1)
		cb := stream.NewCountBatcher(stream.NewSliceSource(fixes), chunk, window.Slide, wl.Start)
		row := Fig7Row{Rate: rate, ChunkLen: chunk}
		var total time.Duration
		for {
			b, ok := cb.Next()
			if !ok {
				break
			}
			if len(b.Fixes) < chunk {
				break // ignore the ragged tail chunk
			}
			t0 := time.Now()
			tr.Slide(b)
			total += time.Since(t0)
			row.Slides++
		}
		if row.Slides > 0 {
			row.Mean = total / time.Duration(row.Slides)
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteFig7 renders the rows.
func WriteFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7 — online tracking at inflated arrival rates (ω=10min, β=1min)")
	fmt.Fprintf(w, "%-14s %12s %8s %14s\n", "ρ (pos/sec)", "chunk", "slides", "mean/slide")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14d %12d %8d %14s\n", r.Rate, r.ChunkLen, r.Slides,
			r.Mean.Round(time.Microsecond))
	}
}
