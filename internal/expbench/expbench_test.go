package expbench

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

// Shared CI-scale workloads: building them once keeps the suite fast.
var (
	onceShort sync.Once
	onceLong  sync.Once
	wlShort   *Workload
	wlLong    *Workload
)

func shortWL(t *testing.T) *Workload {
	t.Helper()
	onceShort.Do(func() { wlShort = ScaleCI.shortWorkload() })
	return wlShort
}

func longWL(t *testing.T) *Workload {
	t.Helper()
	if testing.Short() {
		t.Skip("long workload skipped in -short mode")
	}
	onceLong.Do(func() { wlLong = ScaleCI.longWorkload() })
	return wlLong
}

func TestWorkloadConstruction(t *testing.T) {
	wl := shortWL(t)
	if len(wl.Fixes) == 0 {
		t.Fatal("empty workload")
	}
	if len(wl.Vessels) != ScaleCI.Vessels {
		t.Errorf("vessels = %d, want %d", len(wl.Vessels), ScaleCI.Vessels)
	}
	if len(wl.Areas) < 35 {
		t.Errorf("areas = %d, want >= 35 (incl. watch areas)", len(wl.Areas))
	}
	if len(wl.Ports) == 0 {
		t.Error("no ports")
	}
}

func TestReplicate(t *testing.T) {
	wl := shortWL(t)
	base := wl.Fixes[:100]
	out := Replicate(base, 3)
	if len(out) != 300 {
		t.Fatalf("len = %d, want 300", len(out))
	}
	// Timestamps preserved and MMSIs shifted per replica.
	seen := map[uint32]bool{}
	for _, f := range out[:3] {
		seen[f.MMSI] = true
		if !f.Time.Equal(base[0].Time) {
			t.Error("replica timestamp changed")
		}
	}
	if len(seen) != 3 {
		t.Errorf("first three replicas share MMSIs: %v", seen)
	}
	if got := Replicate(base, 1); len(got) != len(base) {
		t.Error("k=1 must be identity")
	}
}

func TestFig6aShape(t *testing.T) {
	rows := Fig6a(shortWL(t))
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	// Cost grows with β for fixed ω=1h: compare the extremes.
	if rows[4].Mean < rows[0].Mean {
		t.Errorf("tracking cost did not grow with β: β=5m %v vs β=30m %v",
			rows[0].Mean, rows[4].Mean)
	}
	for _, r := range rows {
		if r.Slides == 0 {
			t.Errorf("no slides for ω=%v β=%v", r.Window, r.Slide)
		}
		// Real-time requirement: far below the slide period.
		if r.Mean > r.Slide/2 {
			t.Errorf("tracking cost %v not far below slide %v", r.Mean, r.Slide)
		}
	}
}

func TestFig6bShape(t *testing.T) {
	rows := Fig6b(longWL(t))
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// ω=24h series must process the whole stream.
	for _, r := range rows {
		if r.Fixes == 0 {
			t.Errorf("no fixes for ω=%v β=%v", r.Window, r.Slide)
		}
	}
	// Cost grows with β for ω=24h: compare β=30m to β=4h.
	if rows[9].Mean < rows[5].Mean {
		t.Errorf("large-window cost did not grow with β: %v vs %v",
			rows[5].Mean, rows[9].Mean)
	}
}

func TestFig7Shape(t *testing.T) {
	rows := Fig7(shortWL(t), []int{500, 1000, 2000}, 8, 3)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Slides == 0 {
			t.Fatalf("rate %d produced no full chunks", r.Rate)
		}
		// Timeliness: the tracker must respond well before the next
		// 1-minute slide.
		if r.Mean > 30*time.Second {
			t.Errorf("rate %d: mean %v exceeds half the slide period", r.Rate, r.Mean)
		}
	}
	// Latency grows with the arrival rate.
	if rows[2].Mean < rows[0].Mean {
		t.Errorf("latency did not grow with ρ: %v (ρ=500) vs %v (ρ=2000)",
			rows[0].Mean, rows[2].Mean)
	}
}

func TestFig89Shape(t *testing.T) {
	rows := Fig89(shortWL(t))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Compression < 0.80 || r.Compression >= 1 {
			t.Errorf("Δθ=%v: compression %.3f outside the paper's band", r.TurnDeg, r.Compression)
		}
		if r.AvgRMSE > r.MaxRMSE {
			t.Errorf("avg RMSE above max")
		}
		if i > 0 && r.Critical > rows[i-1].Critical {
			t.Errorf("critical points increased with a looser Δθ: %d → %d",
				rows[i-1].Critical, r.Critical)
		}
	}
	// Error grows as the threshold loosens (paper Figure 8).
	if rows[3].AvgRMSE < rows[0].AvgRMSE {
		t.Errorf("avg RMSE did not grow with Δθ: %f vs %f", rows[0].AvgRMSE, rows[3].AvgRMSE)
	}
}

func TestFig10Shape(t *testing.T) {
	rows := Fig10(longWL(t))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: online tracking dominates maintenance.
		if r.Tracking < r.Staging || r.Tracking < r.Reconstruction || r.Tracking < r.Loading {
			t.Errorf("ω=%v: tracking %v does not dominate (stage %v, recon %v, load %v)",
				r.Window, r.Tracking, r.Staging, r.Reconstruction, r.Loading)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	t4 := Table4(longWL(t))
	if t4.Trips == 0 {
		t.Fatal("no trips reconstructed")
	}
	if t4.PointsInTrajectories == 0 || t4.PointsInStaging == 0 {
		t.Errorf("point split degenerate: %+v", t4)
	}
	if t4.AvgTravelTime <= 0 || t4.AvgDistanceMeters <= 0 {
		t.Errorf("degenerate averages: %+v", t4)
	}
	var sb strings.Builder
	WriteTable4(&sb, t4)
	if !strings.Contains(sb.String(), "trips") {
		t.Error("WriteTable4 output empty")
	}
}

func TestFig11aShape(t *testing.T) {
	rows := Fig11a(shortWL(t))
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Working memory grows with ω (1-processor series, indexes 0..3).
	if rows[3].MeanMEs <= rows[0].MeanMEs {
		t.Errorf("MEs/window did not grow with ω: %d vs %d", rows[0].MeanMEs, rows[3].MeanMEs)
	}
	// CE count grows with ω, as in the paper (0.2K at 1h → 2K at 9h).
	if rows[3].MeanCEs < rows[0].MeanCEs {
		t.Errorf("CEs did not grow with ω: %d vs %d", rows[0].MeanCEs, rows[3].MeanCEs)
	}
	for _, r := range rows {
		if r.Steps == 0 {
			t.Fatalf("ω=%v procs=%d measured no steps", r.Window, r.Procs)
		}
	}
}

func TestFig11TwoProcessorsNotSlower(t *testing.T) {
	wl := shortWL(t)
	slides, queries := MESlides(wl, time.Hour)
	// Timing noise at CI scale: one run's mean is seven sub-millisecond
	// steps, which a collection landing in one of them doubles, and on a
	// shared two-core box a busy neighbour slows the two-goroutine side
	// most. So the collector is held off while timing, the sides
	// alternate, each keeps its best of three runs, and there is slack —
	// parallel recognition must not be systematically slower than
	// sequential.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var best [3]time.Duration // by processor count
	for i := 0; i < 3; i++ {
		for _, procs := range []int{1, 2} {
			row := runFig11(wl, fig11Config{window: 6 * time.Hour, procs: procs}, slides, queries)
			if i == 0 || row.MeanStep < best[procs] {
				best[procs] = row.MeanStep
			}
		}
	}
	if one, two := best[1], best[2]; two > one*3/2 {
		t.Errorf("2 processors (%v) much slower than 1 (%v)", two, one)
	}
}

func TestFig11bFactsPresent(t *testing.T) {
	rows := Fig11b(shortWL(t))
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Mode != 1 {
			t.Fatalf("row not in SF mode: %+v", r)
		}
		if r.MeanFacts == 0 {
			t.Errorf("ω=%v procs=%d: no spatial facts generated", r.Window, r.Procs)
		}
	}
}

func TestAblationOutlierDegradesWithoutFilter(t *testing.T) {
	a := RunAblationOutlier(shortWL(t))
	if a.WithoutFilter.TruthAvgRMSE <= a.WithFilter.TruthAvgRMSE {
		t.Errorf("disabling the outlier filter did not degrade truth RMSE: %.1f vs %.1f",
			a.WithoutFilter.TruthAvgRMSE, a.WithFilter.TruthAvgRMSE)
	}
	if a.WithoutFilter.Critical <= a.WithFilter.Critical {
		t.Errorf("disabling the filter did not inflate the synopsis: %d vs %d",
			a.WithoutFilter.Critical, a.WithFilter.Critical)
	}
}

func TestAblationWindowGrowsUnbounded(t *testing.T) {
	a := RunAblationWindow(shortWL(t))
	if a.Unbounded.MeanMEs <= a.Windowed.MeanMEs {
		t.Errorf("unbounded memory (%d MEs) not larger than windowed (%d)",
			a.Unbounded.MeanMEs, a.Windowed.MeanMEs)
	}
}

func TestWritersProduceOutput(t *testing.T) {
	wl := shortWL(t)
	rows6 := Fig6a(wl)
	rows89 := Fig89(wl)
	rows7 := Fig7(wl, []int{500}, 4, 2)
	rows11 := Fig11a(wl)

	checks := []struct {
		name  string
		write func(sb *strings.Builder)
		want  string
	}{
		{"fig6", func(sb *strings.Builder) { WriteFig6(sb, "Figure 6(a)", rows6) }, "Figure 6(a)"},
		{"fig7", func(sb *strings.Builder) { WriteFig7(sb, rows7) }, "Figure 7"},
		{"fig8", func(sb *strings.Builder) { WriteFig8(sb, rows89) }, "Figure 8"},
		{"fig9", func(sb *strings.Builder) { WriteFig9(sb, rows89) }, "Figure 9"},
		{"fig11", func(sb *strings.Builder) { WriteFig11(sb, "Figure 11(a)", rows11) }, "Figure 11(a)"},
	}
	for _, c := range checks {
		var sb strings.Builder
		c.write(&sb)
		if !strings.Contains(sb.String(), c.want) {
			t.Errorf("%s writer output missing %q", c.name, c.want)
		}
		if strings.Count(sb.String(), "\n") < 3 {
			t.Errorf("%s writer produced too few lines", c.name)
		}
	}
}

func TestDelayExperimentShape(t *testing.T) {
	rows := DelayExperiment(shortWL(t), 90*time.Minute, 0.25)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's trade-off: a longer window loses fewer delayed events.
	if rows[0].LossPct <= rows[3].LossPct {
		t.Errorf("loss did not shrink with ω: %.1f%% (1h) vs %.1f%% (9h)",
			rows[0].LossPct, rows[3].LossPct)
	}
	// With ω=1h and delays up to 90 min, some events must be lost.
	if rows[0].EventsLost == 0 {
		t.Error("no events lost at the smallest window despite 90-minute delays")
	}
	// With ω=9h, nothing should be lost: every delay fits the window.
	if rows[3].EventsLost != 0 {
		t.Errorf("events lost at ω=9h: %d", rows[3].EventsLost)
	}
	var sb strings.Builder
	WriteDelay(&sb, rows)
	if !strings.Contains(sb.String(), "Delayed-arrival") {
		t.Error("WriteDelay output missing title")
	}
}

func TestFig11bCECountsMatchOnDemand(t *testing.T) {
	// The paper: "the number of recognized CEs does not change with
	// respect to the experiments including spatial reasoning."
	wl := shortWL(t)
	a := Fig11a(wl)
	b := Fig11b(wl)
	for i := range a {
		if a[i].Procs != 1 {
			// Two-processor runs split the world geographically: CEs
			// whose vessels and areas straddle the median differ between
			// modes for partitioning reasons, not spatial-reasoning ones.
			continue
		}
		if a[i].MeanCEs != b[i].MeanCEs {
			t.Errorf("ω=%v procs=%d: CEs differ between modes: %d vs %d",
				a[i].Window, a[i].Procs, a[i].MeanCEs, b[i].MeanCEs)
		}
	}
}

func TestScalingSweepShape(t *testing.T) {
	rows := ScalingSweep([]int{100, 400}, 4, 1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, large := rows[0], rows[1]
	if large.Fixes <= small.Fixes || large.MEs <= small.MEs {
		t.Fatalf("workload did not grow with N: %+v vs %+v", small, large)
	}
	// Tracking cost grows with the fleet — and not absurdly
	// super-linearly (allow 3× headroom over the 4× fleet growth).
	if large.TrackingMean < small.TrackingMean {
		t.Errorf("tracking cost shrank with a bigger fleet: %v vs %v",
			small.TrackingMean, large.TrackingMean)
	}
	if large.TrackingMean > small.TrackingMean*12 {
		t.Errorf("tracking cost grew super-linearly: %v vs %v for 4x vessels",
			small.TrackingMean, large.TrackingMean)
	}
	var sb strings.Builder
	WriteScaling(&sb, rows)
	if !strings.Contains(sb.String(), "Scaling sweep") {
		t.Error("WriteScaling output missing")
	}
}

func TestProbSweepShape(t *testing.T) {
	rows := ProbSweep(shortWL(t), []float64{0, 0.6, 0.95})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].FishingTruths == 0 {
		t.Skip("no forbidden-ground trawls completed in this workload")
	}
	// Crisp recognition must find the planted trawls.
	if rows[0].FishingRecall == 0 {
		t.Error("crisp recognition missed every scripted trawl")
	}
	// Raising the belief threshold never raises the alert count.
	for i := 1; i < len(rows); i++ {
		if rows[i].Alerts > rows[i-1].Alerts {
			t.Errorf("alerts grew with θ: %d at %.2f vs %d at %.2f",
				rows[i].Alerts, rows[i].Theta, rows[i-1].Alerts, rows[i-1].Theta)
		}
	}
	var sb strings.Builder
	WriteProb(&sb, rows)
	if !strings.Contains(sb.String(), "crisp") {
		t.Error("WriteProb output missing the crisp row")
	}
}

func TestBaselineSimplifyShape(t *testing.T) {
	rows := BaselineSimplify(shortWL(t))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	online, dp := rows[0], rows[1]
	// Matched compression within a few points.
	if online.Compression < 0.8 || dp.Compression < 0.8 {
		t.Errorf("compressions = %.3f / %.3f, want both high", online.Compression, dp.Compression)
	}
	if d := online.Compression - dp.Compression; d > 0.06 || d < -0.06 {
		t.Errorf("compression mismatch: %.3f vs %.3f", online.Compression, dp.Compression)
	}
	// Both must produce usable reconstructions.
	if online.AvgRMSE <= 0 || dp.AvgRMSE <= 0 {
		t.Errorf("degenerate RMSE: %v / %v", online.AvgRMSE, dp.AvgRMSE)
	}
	// DP optimizes geometry offline with full hindsight: it should not
	// be dramatically more accurate than the online method (the paper's
	// "negligible loss" claim), and the online pass must not be slower
	// by an order of magnitude.
	if online.AvgRMSE > dp.AvgRMSE*25 {
		t.Errorf("online RMSE %.1f m far above the offline optimum %.1f m",
			online.AvgRMSE, dp.AvgRMSE)
	}
	var sb strings.Builder
	WriteBaseline(&sb, rows)
	if !strings.Contains(sb.String(), "Douglas") {
		t.Error("WriteBaseline output missing")
	}
}
