// Package repro's root benchmark suite: one testing.B benchmark per
// table and figure of the paper's evaluation (§5), delegating to the
// experiment harness in internal/expbench. Each benchmark reports the
// headline metric of its figure via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation at CI scale. maritime experiments runs
// the same harness at larger scales and prints the full row sets.
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/expbench"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/serve"
	"repro/internal/stream"
)

// Benchmarks share the CI-scale workloads; building them once keeps
// -bench=. runs affordable.
var (
	benchOnceShort, benchOnceLong sync.Once
	benchShort, benchLong         *expbench.Workload
)

func benchShortWL() *expbench.Workload {
	benchOnceShort.Do(func() {
		benchShort = expbench.BuildWorkload(expbench.ScaleCI.Vessels, expbench.ScaleCI.Short, expbench.ScaleCI.Seed)
	})
	return benchShort
}

func benchLongWL() *expbench.Workload {
	benchOnceLong.Do(func() {
		benchLong = expbench.BuildWorkload(expbench.ScaleCI.Vessels, expbench.ScaleCI.Long, expbench.ScaleCI.Seed)
	})
	return benchLong
}

// BenchmarkFig6aTrackingSmallWindows reproduces Figure 6(a): online
// tracking cost per slide for small window ranges. Reported metric:
// worst mean-per-slide across the sweep, in microseconds.
func BenchmarkFig6aTrackingSmallWindows(b *testing.B) {
	wl := benchShortWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := expbench.Fig6a(wl)
		var worst time.Duration
		for _, r := range rows {
			if r.Mean > worst {
				worst = r.Mean
			}
		}
		b.ReportMetric(float64(worst.Microseconds()), "worst-slide-µs")
	}
}

// BenchmarkFig6bTrackingLargeWindows reproduces Figure 6(b): the same
// measurement for ω ∈ {6 h, 24 h}.
func BenchmarkFig6bTrackingLargeWindows(b *testing.B) {
	wl := benchLongWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := expbench.Fig6b(wl)
		var worst time.Duration
		for _, r := range rows {
			if r.Mean > worst {
				worst = r.Mean
			}
		}
		b.ReportMetric(float64(worst.Microseconds()), "worst-slide-µs")
	}
}

// BenchmarkFig7ArrivalRates reproduces Figure 7: tracking latency at
// inflated arrival rates. Reported metric: mean per-slide latency at
// the highest rate, in microseconds.
func BenchmarkFig7ArrivalRates(b *testing.B) {
	wl := benchShortWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := expbench.Fig7(wl, nil, expbench.ScaleCI.Fig7Reps, 3)
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.Mean.Microseconds()), "10k-slide-µs")
	}
}

// BenchmarkFig8RMSE reproduces Figure 8: trajectory approximation
// error across the Δθ sweep. Reported metrics: average RMSE at the
// default Δθ = 15° and the worst max-RMSE of the sweep, in meters.
func BenchmarkFig8RMSE(b *testing.B) {
	wl := benchShortWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := expbench.Fig89(wl)
		b.ReportMetric(rows[2].AvgRMSE, "avg-rmse-m@15°")
		var worst float64
		for _, r := range rows {
			if r.MaxRMSE > worst {
				worst = r.MaxRMSE
			}
		}
		b.ReportMetric(worst, "worst-max-rmse-m")
	}
}

// BenchmarkFig9Compression reproduces Figure 9: compression ratio
// across the Δθ sweep. Reported metric: compression percentage at the
// default Δθ = 15°.
func BenchmarkFig9Compression(b *testing.B) {
	wl := benchShortWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := expbench.Fig89(wl)
		b.ReportMetric(rows[2].Compression*100, "compression-%@15°")
	}
}

// BenchmarkFig10Maintenance reproduces Figure 10: the per-slide
// trajectory maintenance breakdown. Reported metrics: tracking and
// total archival (staging+reconstruction+loading) cost per slide for
// the ω = 24 h configuration, in microseconds.
func BenchmarkFig10Maintenance(b *testing.B) {
	wl := benchLongWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := expbench.Fig10(wl)
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.Tracking.Microseconds()), "tracking-µs")
		archival := last.Staging + last.Reconstruction + last.Loading
		b.ReportMetric(float64(archival.Microseconds()), "archival-µs")
	}
}

// BenchmarkTable4Reconstruction reproduces Table 4: end-of-stream trip
// reconstruction statistics. Reported metrics: trips completed and the
// fraction of critical points left in the staging area.
func BenchmarkTable4Reconstruction(b *testing.B) {
	wl := benchLongWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4 := expbench.Table4(wl)
		b.ReportMetric(float64(t4.Trips), "trips")
		total := t4.PointsInTrajectories + t4.PointsInStaging
		if total > 0 {
			b.ReportMetric(float64(t4.PointsInStaging)/float64(total)*100, "staged-%")
		}
	}
}

// BenchmarkFig11aRecognition reproduces Figure 11(a): CE recognition
// time with on-demand spatial reasoning. Reported metrics: mean
// per-query recognition time at ω = 9 h for one and two processors, in
// microseconds.
func BenchmarkFig11aRecognition(b *testing.B) {
	wl := benchShortWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := expbench.Fig11a(wl)
		for _, r := range rows {
			if r.Window == 9*time.Hour {
				switch r.Procs {
				case 1:
					b.ReportMetric(float64(r.MeanStep.Microseconds()), "1proc-9h-µs")
				case 2:
					b.ReportMetric(float64(r.MeanStep.Microseconds()), "2proc-9h-µs")
				}
			}
		}
	}
}

// timedAllocs runs f and returns its wall time and heap allocations.
func timedAllocs(f func()) (time.Duration, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, start := ms.Mallocs, time.Now()
	f()
	busy := time.Since(start)
	runtime.ReadMemStats(&ms)
	return busy, ms.Mallocs - before
}

// BenchmarkRecognizerAdvance measures one recognition query step over a
// warm window on a denser world than Figure 11's (140 areas, β = 5 min,
// so every ME lives in ω/β = 12, 72 or 144 overlapping windows): the
// whole stream is replayed per iteration and the warm steps are timed.
// Reported metrics: mean time and allocations per warm step, and the
// fluent instances a warm step derived again (the rest it carried
// forward). The step evaluates what changed, so time per step should
// stay roughly flat in ω.
func BenchmarkRecognizerAdvance(b *testing.B) {
	const slide = 5 * time.Minute
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels, cfg.NumAreas, cfg.Duration = 400, 140, 15*time.Hour
	wl := expbench.BuildWorkloadFrom(cfg)
	slides, queries := expbench.MESlides(wl, slide)
	for _, window := range []time.Duration{time.Hour, 6 * time.Hour, 12 * time.Hour} {
		b.Run(fmt.Sprintf("window=%s", window), func(b *testing.B) {
			warm := int(window / slide)
			var busy time.Duration
			var allocs uint64
			evaluated := 0
			for i := 0; i < b.N; i++ {
				rec := maritime.NewRecognizer(maritime.Config{Window: window}, wl.Vessels, wl.Areas)
				for k := 0; k < warm; k++ {
					rec.Advance(queries[k], slides[k], nil)
				}
				before := rec.Engine().Stats().Evaluated
				t, a := timedAllocs(func() {
					for k := warm; k < len(slides); k++ {
						rec.Advance(queries[k], slides[k], nil)
					}
				})
				busy, allocs = busy+t, allocs+a
				evaluated += rec.Engine().Stats().Evaluated - before
			}
			steps := float64(b.N * (len(slides) - warm))
			b.ReportMetric(float64(busy.Microseconds())/steps, "µs/step")
			b.ReportMetric(float64(allocs)/steps, "allocs/step")
			b.ReportMetric(float64(evaluated)/steps, "evaluated/step")
		})
	}
}

// BenchmarkTierSlide measures one slide of the pairwise analytics tier
// (rendezvous, dark-gap and CPA collision screening) on the paced
// benchmark shape: N = 1500 with 30 + 30 scripted pairs, ω = 2 h,
// β = 1 min. A stream opens with every vessel appearing at once and
// staying in the collision screen until its first point is older than
// the screen's staleness bound, so cold is the first fifteen stream minutes of a fresh tier —
// some fifty times the candidate pairs of the steady state, the burst an
// operator pays on every start — and steady is the second stream hour.
// Reported metrics: mean time and allocations per slide.
func BenchmarkTierSlide(b *testing.B) {
	const cold, steady = 15, 60
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels, cfg.RendezvousPairs, cfg.DarkPairs, cfg.Duration = 1500, 30, 30, 2*time.Hour
	wl := expbench.BuildWorkloadFrom(cfg)
	slides, queries := expbench.CriticalSlides(wl, stream.WindowSpec{Range: 2 * time.Hour, Slide: time.Minute})
	ports := core.PortPolys(wl.Ports)
	for _, phase := range []struct {
		name     string
		from, to int
	}{{"cold", 0, cold}, {"steady", steady, len(slides)}} {
		b.Run(phase.name, func(b *testing.B) {
			var busy time.Duration
			var allocs uint64
			for i := 0; i < b.N; i++ {
				tier := analytics.New(analytics.Config{EnableCollision: true}, ports)
				for k := 0; k < phase.from; k++ {
					tier.Slide(queries[k], slides[k])
				}
				t, a := timedAllocs(func() {
					for k := phase.from; k < phase.to; k++ {
						tier.Slide(queries[k], slides[k])
					}
				})
				busy, allocs = busy+t, allocs+a
			}
			steps := float64(b.N * (phase.to - phase.from))
			b.ReportMetric(float64(busy.Microseconds())/steps, "µs/slide")
			b.ReportMetric(float64(allocs)/steps, "allocs/slide")
		})
	}
}

// BenchmarkFig11bRecognitionSF reproduces Figure 11(b): recognition
// over precomputed spatial facts. Reported metric: mean per-query time
// at ω = 9 h with two processors, in microseconds.
func BenchmarkFig11bRecognitionSF(b *testing.B) {
	wl := benchShortWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := expbench.Fig11b(wl)
		for _, r := range rows {
			if r.Window == 9*time.Hour && r.Procs == 2 && r.Mode == maritime.SpatialFacts {
				b.ReportMetric(float64(r.MeanStep.Microseconds()), "2proc-9h-sf-µs")
			}
		}
	}
}

// BenchmarkAblationNoOutlierFilter measures the outlier-filter
// ablation. Reported metric: max-RMSE degradation factor without the
// filter.
func BenchmarkAblationNoOutlierFilter(b *testing.B) {
	wl := benchShortWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := expbench.RunAblationOutlier(wl)
		if a.WithFilter.TruthAvgRMSE > 0 {
			b.ReportMetric(a.WithoutFilter.TruthAvgRMSE/a.WithFilter.TruthAvgRMSE, "truth-rmse-×")
		}
		if a.WithFilter.Critical > 0 {
			// Spurious turn/speed-change points admitted by outliers.
			b.ReportMetric(float64(a.WithoutFilter.Critical)/float64(a.WithFilter.Critical), "critical-×")
		}
	}
}

// BenchmarkAblationUnboundedWindow measures recognition with an
// unbounded working memory against the windowed configuration.
// Reported metric: per-query slowdown factor of never forgetting.
func BenchmarkAblationUnboundedWindow(b *testing.B) {
	wl := benchShortWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := expbench.RunAblationWindow(wl)
		if a.Windowed.MeanStep > 0 {
			b.ReportMetric(float64(a.Unbounded.MeanStep)/float64(a.Windowed.MeanStep), "slowdown-×")
		}
	}
}

// BenchmarkAblationNoGridIndex measures close/3 with and without the
// uniform grid index. Reported metric: linear-scan slowdown factor.
func BenchmarkAblationNoGridIndex(b *testing.B) {
	wl := benchShortWL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := expbench.RunAblationGrid(wl)
		if a.WithGrid > 0 {
			b.ReportMetric(float64(a.LinearScan)/float64(a.WithGrid), "scan-slowdown-×")
		}
	}
}

// BenchmarkHubFanout measures the alert gateway's fan-out hub
// (internal/serve): one Publish of a slide's worth of alerts against
// 1, 100, and 10k live subscribers, each drained by its own goroutine,
// and against 1000 subscribers with per-vessel filters.
// Publish is non-blocking by construction — a subscriber that falls
// behind drops from its own bounded queue — so the per-op cost is the
// pipeline-side price of serving that many clients. Every subscriber is
// offered every envelope and its own Filter.Match keeps what it wants,
// so the cost is O(subscribers × envelopes) whether or not the filters
// reject most of them: the filtered case pays for all 1000 subscribers
// to deliver to 100. Reported metrics: envelopes delivered and dropped
// per publish.
func BenchmarkHubFanout(b *testing.B) {
	alerts := make([]maritime.Alert, 4)
	base := time.Date(2015, 3, 15, 12, 0, 0, 0, time.UTC)
	for i := range alerts {
		alerts[i] = maritime.Alert{
			CE:     maritime.CEIllegalShipping,
			AreaID: "bench-area",
			Time:   base,
			Vessel: uint32(237000101 + i),
		}
	}
	// The filtered case gives each subscriber one vessel out of 40, so a
	// publish reaches only the subscribers of its alerts' vessels.
	const mmsiSpread = 40
	for _, tc := range []struct {
		name     string
		subs     int
		filtered bool
	}{
		{"subs=1", 1, false},
		{"subs=100", 100, false},
		{"subs=10000", 10000, false},
		{"filtered/subs=1000", 1000, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			hub := serve.NewHub(1024)
			var wg sync.WaitGroup
			sl := make([]*serve.Subscriber, tc.subs)
			for i := range sl {
				f := serve.Filter{}
				if tc.filtered {
					f.MMSI = map[uint32]struct{}{uint32(237000101 + i%mmsiSpread): {}}
				}
				sl[i] = hub.Subscribe(f, 256)
				wg.Add(1)
				go func(s *serve.Subscriber) {
					defer wg.Done()
					for {
						if _, ok := s.Next(); !ok {
							return
						}
					}
				}(sl[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hub.Publish(base.Add(time.Duration(i)*time.Second), alerts)
			}
			b.StopTimer()
			// Let the drainers finish the in-flight tail so the
			// delivered counter reflects every publish.
			for {
				pending := 0
				for _, s := range hub.Stats().Subs {
					pending += s.Pending
				}
				if pending == 0 {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			st := hub.Stats()
			for _, s := range sl {
				s.Close()
			}
			wg.Wait()
			b.ReportMetric(float64(st.Delivered)/float64(b.N), "delivered/op")
			b.ReportMetric(float64(st.Dropped)/float64(b.N), "dropped/op")
		})
	}
}
