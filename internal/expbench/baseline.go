package expbench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/simplify"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// BaselineRow compares the paper's online critical-point summarization
// against offline Douglas–Peucker simplification (§3.2/§6): at matched
// compression, how do approximation quality and processing cost
// differ? The paper's position: the online method avoids "a costly
// simplification algorithm" while keeping the loss negligible — and,
// unlike DP, works single-pass on a live stream and annotates the
// retained points with movement semantics.
type BaselineRow struct {
	Method      string
	Compression float64
	AvgRMSE     float64
	MaxRMSE     float64
	Elapsed     time.Duration // total processing time over the workload
}

// BaselineSimplify runs both methods over the workload. The online
// tracker runs first (its compression is whatever Δθ=15° yields); DP
// is then bisected to the same per-run ratio for a like-for-like RMSE
// comparison.
func BaselineSimplify(wl *Workload) []BaselineRow {
	// Online critical points.
	window := stream.WindowSpec{Range: 6 * time.Hour, Slide: time.Hour}
	tr := tracker.NewSharded(tracker.DefaultParams(), window, 1)
	var points []tracker.CriticalPoint
	start := time.Now()
	batcher := stream.NewBatcher(stream.NewSliceSource(wl.Fixes), window.Slide)
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		points = append(points, tr.Slide(b).Fresh...)
	}
	onlineElapsed := time.Since(start)
	avg, max := tracker.FleetRMSE(wl.Fixes, points)
	ratio := tr.Stats().CompressionRatio()
	rows := []BaselineRow{{
		Method:      "online critical points",
		Compression: ratio,
		AvgRMSE:     avg,
		MaxRMSE:     max,
		Elapsed:     onlineElapsed,
	}}

	// Offline Douglas–Peucker at the same compression, per vessel.
	byVessel := tracker.SplitFixesByVessel(wl.Fixes)
	var dpPoints []tracker.CriticalPoint
	kept := 0
	start = time.Now()
	for mmsi, orig := range byVessel {
		got, _ := simplify.AtRatio(orig, ratio, 10)
		kept += len(got)
		for _, f := range got {
			dpPoints = append(dpPoints, tracker.CriticalPoint{
				MMSI: mmsi, Pos: f.Pos, Time: f.Time,
			})
		}
	}
	dpElapsed := time.Since(start)
	dpAvg, dpMax := tracker.FleetRMSE(wl.Fixes, dpPoints)
	rows = append(rows, BaselineRow{
		Method:      "offline Douglas–Peucker",
		Compression: 1 - float64(kept)/float64(len(wl.Fixes)),
		AvgRMSE:     dpAvg,
		MaxRMSE:     dpMax,
		Elapsed:     dpElapsed,
	})
	return rows
}

// WriteBaseline renders the comparison.
func WriteBaseline(w io.Writer, rows []BaselineRow) {
	fmt.Fprintln(w, "Baseline — online critical points vs offline Douglas–Peucker (matched compression)")
	fmt.Fprintf(w, "%-26s %12s %14s %14s %12s\n",
		"method", "compression", "avg RMSE (m)", "max RMSE (m)", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %11.1f%% %14.1f %14.1f %12s\n",
			r.Method, r.Compression*100, r.AvgRMSE, r.MaxRMSE,
			r.Elapsed.Round(time.Millisecond))
	}
}
