package expbench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/stream"
	"repro/internal/tracker"
)

// Fig89Row is one point of the paper's Figures 8 and 9: for a turn
// threshold Δθ, the trajectory approximation error (average and
// maximum per-vessel RMSE against the original stream) and the
// compression achieved (critical points kept and reduction ratio).
type Fig89Row struct {
	TurnDeg     float64
	AvgRMSE     float64 // meters, averaged over vessels
	MaxRMSE     float64 // meters, worst vessel
	Critical    int     // critical points kept
	Compression float64 // fraction of original positions discarded
}

// Fig89 sweeps Δθ ∈ {5°, 10°, 15°, 20°} with ω = 6 h, β = 1 h (the
// setting of the paper's Figure 9) and reports both figures' series.
// The paper's shapes: average RMSE stays below ~16 m on its data and
// grows with Δθ (max bounded near ~200 m at 20°); each +5° in Δθ
// drops roughly 5% of the critical points while the ratio stays around
// 94%.
func Fig89(wl *Workload) []Fig89Row {
	window := stream.WindowSpec{Range: 6 * time.Hour, Slide: time.Hour}
	var rows []Fig89Row
	for _, deg := range []float64{5, 10, 15, 20} {
		params := tracker.DefaultParams()
		params.TurnThresholdDeg = deg
		tr := tracker.NewSharded(params, window, 1)

		var points []tracker.CriticalPoint
		batcher := stream.NewBatcher(stream.NewSliceSource(wl.Fixes), window.Slide)
		for {
			b, ok := batcher.Next()
			if !ok {
				break
			}
			points = append(points, tr.Slide(b).Fresh...)
		}
		avg, max := tracker.FleetRMSE(wl.Fixes, points)
		st := tr.Stats()
		rows = append(rows, Fig89Row{
			TurnDeg:     deg,
			AvgRMSE:     avg,
			MaxRMSE:     max,
			Critical:    st.Critical,
			Compression: st.CompressionRatio(),
		})
	}
	return rows
}

// WriteFig8 renders the approximation-error series.
func WriteFig8(w io.Writer, rows []Fig89Row) {
	fmt.Fprintln(w, "Figure 8 — trajectory approximation error vs turn threshold Δθ")
	fmt.Fprintf(w, "%-6s %14s %14s\n", "Δθ", "avg RMSE (m)", "max RMSE (m)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6.0f %14.1f %14.1f\n", r.TurnDeg, r.AvgRMSE, r.MaxRMSE)
	}
}

// WriteFig9 renders the compression series.
func WriteFig9(w io.Writer, rows []Fig89Row) {
	fmt.Fprintln(w, "Figure 9 — compression vs turn threshold Δθ (ω=6h, β=1h)")
	fmt.Fprintf(w, "%-6s %16s %14s\n", "Δθ", "critical points", "compression")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6.0f %16d %13.1f%%\n", r.TurnDeg, r.Critical, r.Compression*100)
	}
}
