package expbench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/stream"
	"repro/internal/tracker"
)

// Fig6Row is one point of the paper's Figure 6: the mean online
// tracking cost per window slide for a (ω, β) pair — updating the
// window with fresh locations, evicting expired ones, detecting
// trajectory events, and reporting critical points, averaged over all
// window instantiations.
type Fig6Row struct {
	Window time.Duration // ω
	Slide  time.Duration // β
	Slides int           // window instantiations measured
	Mean   time.Duration // mean tracking cost per slide
	Fixes  int           // fixes processed
	Crit   int           // critical points reported
}

// trackingCostPerSlide replays the workload through a fresh tracker and
// measures pure tracking time per slide.
func trackingCostPerSlide(wl *Workload, window stream.WindowSpec) Fig6Row {
	tr := tracker.NewSharded(tracker.DefaultParams(), window, 1)
	batcher := stream.NewBatcher(stream.NewSliceSource(wl.Fixes), window.Slide)
	row := Fig6Row{Window: window.Range, Slide: window.Slide}
	var total time.Duration
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		t0 := time.Now()
		tr.Slide(b)
		total += time.Since(t0)
		row.Slides++
	}
	if row.Slides > 0 {
		row.Mean = total / time.Duration(row.Slides)
	}
	st := tr.Stats()
	row.Fixes = st.FixesIn
	row.Crit = st.Critical
	return row
}

// Fig6a reproduces Figure 6(a): small window ranges ω ∈ {1 h, 2 h}
// with slides β ∈ {5, 10, 15, 20, 30} min. The paper's shape: cost
// grows roughly linearly with β (more fresh positions per slide) and
// stays far below the slide period.
func Fig6a(wl *Workload) []Fig6Row {
	var rows []Fig6Row
	for _, omega := range []time.Duration{time.Hour, 2 * time.Hour} {
		for _, beta := range []time.Duration{5, 10, 15, 20, 30} {
			rows = append(rows, trackingCostPerSlide(wl, stream.WindowSpec{
				Range: omega, Slide: beta * time.Minute,
			}))
		}
	}
	return rows
}

// Fig6b reproduces Figure 6(b): large ranges ω ∈ {6 h, 24 h} with
// slides β ∈ {0.5, 1, 1.5, 2, 4} h. Same linear-in-β shape at a larger
// absolute level.
func Fig6b(wl *Workload) []Fig6Row {
	var rows []Fig6Row
	for _, omega := range []time.Duration{6 * time.Hour, 24 * time.Hour} {
		for _, beta := range []time.Duration{30, 60, 90, 120, 240} {
			rows = append(rows, trackingCostPerSlide(wl, stream.WindowSpec{
				Range: omega, Slide: beta * time.Minute,
			}))
		}
	}
	return rows
}

// WriteFig6 renders the rows in the layout of the paper's figure.
func WriteFig6(w io.Writer, title string, rows []Fig6Row) {
	fmt.Fprintf(w, "%s — online mobility tracking cost per window slide\n", title)
	fmt.Fprintf(w, "%-8s %-10s %8s %14s %10s %10s\n",
		"ω", "β", "slides", "mean/slide", "fixes", "critical")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-10s %8d %14s %10d %10d\n",
			r.Window, r.Slide, r.Slides, r.Mean.Round(time.Microsecond), r.Fixes, r.Crit)
	}
}
