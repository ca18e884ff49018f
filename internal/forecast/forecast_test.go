package forecast

import (
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/fleetsim"
	"repro/internal/geo"
	"repro/internal/stream"
	"repro/internal/tracker"
)

var t0 = time.Date(2009, 6, 1, 6, 0, 0, 0, time.UTC)

// cruiseFixes emits a straight 12-knot track.
func cruiseFixes(mmsi uint32, heading float64, n int) []ais.Fix {
	pos := geo.Point{Lon: 24, Lat: 37}
	fixes := make([]ais.Fix, n)
	for i := 0; i < n; i++ {
		pos = geo.Destination(pos, heading, geo.KnotsToMetersPerSecond(12)*60)
		fixes[i] = ais.Fix{MMSI: mmsi, Pos: pos, Time: t0.Add(time.Duration(i+1) * time.Minute)}
	}
	return fixes
}

func TestPredictCruisingVessel(t *testing.T) {
	f := New(tracker.DefaultParams())
	fixes := cruiseFixes(1, 90, 10)
	for _, fx := range fixes {
		f.ObserveFix(fx)
	}
	now := fixes[len(fixes)-1].Time
	for _, horizon := range []time.Duration{5 * time.Minute, 15 * time.Minute, 30 * time.Minute} {
		p, ok := f.Predict(1, now, horizon)
		if !ok {
			t.Fatal("no prediction")
		}
		if p.Confidence != ConfidenceHigh {
			t.Errorf("horizon %v: confidence %v", horizon, p.Confidence)
		}
		// Ground truth: continue straight at 12 knots.
		want := geo.Destination(fixes[len(fixes)-1].Pos, 90,
			geo.KnotsToMetersPerSecond(12)*horizon.Seconds())
		if d := geo.Haversine(p.Pos, want); d > 100 {
			t.Errorf("horizon %v: forecast %0.f m off the dead-reckoned truth", horizon, d)
		}
	}
}

func TestPredictStoppedVesselStaysPut(t *testing.T) {
	f := New(tracker.DefaultParams())
	fix := ais.Fix{MMSI: 2, Pos: geo.Point{Lon: 23.6, Lat: 37.9}, Time: t0}
	f.ObserveFix(fix)
	f.ObserveEvents([]tracker.CriticalPoint{
		{MMSI: 2, Type: tracker.EventStopStart, Pos: fix.Pos, Time: t0},
	})
	p, ok := f.Predict(2, t0.Add(time.Minute), 30*time.Minute)
	if !ok || p.Pos != fix.Pos {
		t.Errorf("stopped vessel predicted to move: %+v", p)
	}
	if p.Confidence != ConfidenceHigh {
		t.Errorf("confidence = %v", p.Confidence)
	}
	// After the stop ends and the vessel moves, projection resumes.
	f.ObserveEvents([]tracker.CriticalPoint{{MMSI: 2, Type: tracker.EventStopEnd, Time: t0.Add(time.Hour)}})
}

func TestPredictSilentVesselFlaggedDead(t *testing.T) {
	f := New(tracker.DefaultParams())
	for _, fx := range cruiseFixes(3, 45, 5) {
		f.ObserveFix(fx)
	}
	// 20 minutes of silence exceeds the 10-minute gap threshold.
	now := t0.Add(25 * time.Minute)
	p, ok := f.Predict(3, now, 5*time.Minute)
	if !ok {
		t.Fatal("no prediction")
	}
	if p.Confidence != ConfidenceDead {
		t.Errorf("confidence = %v, want dead", p.Confidence)
	}
}

func TestPredictAfterTurnIsLowConfidence(t *testing.T) {
	f := New(tracker.DefaultParams())
	fixes := cruiseFixes(4, 90, 8)
	for _, fx := range fixes {
		f.ObserveFix(fx)
	}
	now := fixes[len(fixes)-1].Time
	f.ObserveEvents([]tracker.CriticalPoint{
		{MMSI: 4, Type: tracker.EventTurn, Time: now.Add(-time.Minute)},
	})
	p, _ := f.Predict(4, now, 15*time.Minute)
	if p.Confidence != ConfidenceLow {
		t.Errorf("confidence after a fresh turn = %v, want low", p.Confidence)
	}
}

func TestPredictUnknownVessel(t *testing.T) {
	f := New(tracker.DefaultParams())
	if _, ok := f.Predict(99, t0, time.Minute); ok {
		t.Error("prediction for unknown vessel")
	}
}

// TestForecastAccuracyAgainstSimulator evaluates mean forecast error at
// the paper's 5/15/30-minute horizons against scripted ground truth:
// error must grow with the horizon and stay moderate for
// high-confidence predictions.
func TestForecastAccuracyAgainstSimulator(t *testing.T) {
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = 120
	cfg.Duration = 4 * time.Hour
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()

	params := tracker.DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute}
	tr := tracker.NewSharded(params, window, 1)
	f := New(params)

	// Feed the first three hours.
	now := cfg.Start.Add(3 * time.Hour)
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), window.Slide)
	for {
		b, ok := batcher.Next()
		if !ok || b.Query.After(now) {
			break
		}
		res := tr.Slide(b)
		for _, fx := range b.Fixes {
			f.ObserveFix(fx)
		}
		f.ObserveEvents(res.Fresh)
	}
	if f.VesselCount() == 0 {
		t.Fatal("no vessels observed")
	}

	horizons := []time.Duration{5 * time.Minute, 15 * time.Minute, 30 * time.Minute}
	means := make([]float64, len(horizons))
	for hi, horizon := range horizons {
		var sum float64
		n := 0
		for _, p := range f.PredictAll(now, horizon) {
			if p.Confidence != ConfidenceHigh {
				continue
			}
			truth, ok := sim.ScriptedPos(p.MMSI, p.At)
			if !ok {
				continue
			}
			sum += geo.Haversine(p.Pos, truth)
			n++
		}
		if n == 0 {
			t.Fatalf("no high-confidence predictions at %v", horizon)
		}
		means[hi] = sum / float64(n)
	}
	if !(means[0] <= means[1] && means[1] <= means[2]) {
		t.Errorf("forecast error not monotone in horizon: %v", means)
	}
	// 5-minute dead reckoning of mostly-straight traffic: mean error
	// well under 2 km (a 12-knot vessel covers ~1.85 km in 5 minutes).
	if means[0] > 2000 {
		t.Errorf("5-minute mean error = %.0f m", means[0])
	}
}
