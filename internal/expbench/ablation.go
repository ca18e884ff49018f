package expbench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/geo"

	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// AblationOutlier compares trajectory approximation quality with and
// without the off-course outlier filter (DESIGN.md ablation 1): the
// filter is the reason noisy positions do not distort the synopsis
// (paper Figure 2(d)). Quality is measured against the simulator's
// noise-free scripted paths — an accepted outlier drags the
// reconstruction off the true course even though it sits close to the
// (equally bogus) reported fix.
type AblationOutlier struct {
	WithFilter    OutlierRow
	WithoutFilter OutlierRow
}

// OutlierRow is one configuration's result: truth-referenced RMSE plus
// the synopsis size.
type OutlierRow struct {
	TruthAvgRMSE float64 // meters, vs scripted ground truth
	TruthMaxRMSE float64
	Critical     int
}

// RunAblationOutlier measures both configurations at the default Δθ,
// over a dedicated workload with an aggressive outlier profile (the
// default trace's rare outliers wash out of fleet-level RMSE). The
// input workload only sizes the ablation dataset.
func RunAblationOutlier(sized *Workload) AblationOutlier {
	dur := sized.End.Sub(sized.Start)
	if dur > 6*time.Hour {
		dur = 6 * time.Hour
	}
	wl := BuildNoisyWorkload(len(sized.Vessels), dur, 2)
	run := func(disable bool) OutlierRow {
		params := tracker.DefaultParams()
		params.DisableOutlierFilter = disable
		window := stream.WindowSpec{Range: 6 * time.Hour, Slide: time.Hour}
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
		avg, max := truthRMSE(wl, points)
		return OutlierRow{TruthAvgRMSE: avg, TruthMaxRMSE: max, Critical: tr.Stats().Critical}
	}
	return AblationOutlier{WithFilter: run(false), WithoutFilter: run(true)}
}

// truthRMSE measures reconstruction deviation from the scripted
// (noise-free) vessel paths, sampled at the original report times.
func truthRMSE(wl *Workload, points []tracker.CriticalPoint) (avg, max float64) {
	origins := tracker.SplitFixesByVessel(wl.Fixes)
	synopses := tracker.SplitByVessel(points)
	var sum float64
	n := 0
	for mmsi, orig := range origins {
		syn := synopses[mmsi]
		if len(syn) == 0 {
			continue
		}
		last := orig[len(orig)-1]
		if last.Time.After(syn[len(syn)-1].Time) {
			syn = append(syn[:len(syn):len(syn)], tracker.CriticalPoint{
				MMSI: mmsi, Pos: last.Pos, Time: last.Time,
			})
		}
		var sumSq float64
		m := 0
		for _, f := range orig {
			truth, ok := wl.Sim.ScriptedPos(mmsi, f.Time)
			if !ok {
				continue
			}
			approx, ok := syn.At(f.Time)
			if !ok {
				continue
			}
			d := geo.Haversine(truth, approx)
			sumSq += d * d
			m++
		}
		if m == 0 {
			continue
		}
		e := math.Sqrt(sumSq / float64(m))
		sum += e
		if e > max {
			max = e
		}
		n++
	}
	if n > 0 {
		avg = sum / float64(n)
	}
	return avg, max
}

// WriteAblationOutlier renders the comparison.
func WriteAblationOutlier(w io.Writer, a AblationOutlier) {
	fmt.Fprintln(w, "Ablation — off-course outlier filter (error vs scripted ground truth)")
	fmt.Fprintf(w, "%-16s %14s %14s %16s\n", "config", "avg RMSE (m)", "max RMSE (m)", "critical points")
	fmt.Fprintf(w, "%-16s %14.1f %14.1f %16d\n", "with filter",
		a.WithFilter.TruthAvgRMSE, a.WithFilter.TruthMaxRMSE, a.WithFilter.Critical)
	fmt.Fprintf(w, "%-16s %14.1f %14.1f %16d\n", "without filter",
		a.WithoutFilter.TruthAvgRMSE, a.WithoutFilter.TruthMaxRMSE, a.WithoutFilter.Critical)
}

// AblationWindow contrasts windowed RTEC recognition against an
// effectively unbounded working memory (DESIGN.md ablation 3): without
// forgetting, per-query cost grows with the full event history — the
// paper's motivation for the windowing semantics ("no [other] Event
// Calculus system 'forgets'").
type AblationWindow struct {
	Windowed  Fig11Row // ω = 2 h
	Unbounded Fig11Row // ω larger than the whole run
}

// RunAblationWindow measures both.
func RunAblationWindow(wl *Workload) AblationWindow {
	slides, queries := MESlides(wl, time.Hour)
	return AblationWindow{
		Windowed: runFig11(wl, fig11Config{
			window: 2 * time.Hour, procs: 1, mode: maritime.SpatialOnDemand,
		}, slides, queries),
		Unbounded: runFig11(wl, fig11Config{
			window: 1000 * time.Hour, procs: 1, mode: maritime.SpatialOnDemand,
		}, slides, queries),
	}
}

// WriteAblationWindow renders the comparison.
func WriteAblationWindow(w io.Writer, a AblationWindow) {
	fmt.Fprintln(w, "Ablation — windowed vs unbounded RTEC working memory")
	fmt.Fprintf(w, "%-12s %10s %14s\n", "config", "MEs/win", "mean/query")
	fmt.Fprintf(w, "%-12s %10d %14s\n", "ω=2h", a.Windowed.MeanMEs,
		a.Windowed.MeanStep.Round(time.Microsecond))
	fmt.Fprintf(w, "%-12s %10d %14s\n", "unbounded", a.Unbounded.MeanMEs,
		a.Unbounded.MeanStep.Round(time.Microsecond))
}

// AblationGrid contrasts close/3 evaluation with the uniform grid
// index against a linear scan over all areas (DESIGN.md ablation 4).
type AblationGrid struct {
	WithGrid   time.Duration // mean recognition time per query
	LinearScan time.Duration
	Steps      int
}

// RunAblationGrid measures both over ω = 6 h.
func RunAblationGrid(wl *Workload) AblationGrid {
	slides, queries := MESlides(wl, time.Hour)
	run := func(disable bool) time.Duration {
		rec := maritime.NewRecognizer(maritime.Config{
			Window: 6 * time.Hour, DisableGridIndex: disable,
		}, wl.Vessels, wl.Areas)
		var total time.Duration
		for i, events := range slides {
			t0 := time.Now()
			rec.Advance(queries[i], events, nil)
			total += time.Since(t0)
		}
		if len(slides) == 0 {
			return 0
		}
		return total / time.Duration(len(slides))
	}
	return AblationGrid{WithGrid: run(false), LinearScan: run(true), Steps: len(slides)}
}

// WriteAblationGrid renders the comparison.
func WriteAblationGrid(w io.Writer, a AblationGrid) {
	fmt.Fprintln(w, "Ablation — grid index vs linear scan for close/3 (ω=6h)")
	fmt.Fprintf(w, "%-14s %14s\n", "config", "mean/query")
	fmt.Fprintf(w, "%-14s %14s\n", "grid index", a.WithGrid.Round(time.Microsecond))
	fmt.Fprintf(w, "%-14s %14s\n", "linear scan", a.LinearScan.Round(time.Microsecond))
}
