package tracker

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/fleetsim"
	"repro/internal/stream"
)

// simFixes builds a small realistic stream once for the invariant tests.
func simFixes(tb testing.TB) []ais.Fix {
	tb.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = 60
	cfg.Duration = 3 * time.Hour
	return fleetsim.NewSimulator(cfg).Run()
}

// collect runs the tracker over the fixes with the given window and
// returns all fresh critical points.
func collect(fixes []ais.Fix, window stream.WindowSpec) []CriticalPoint {
	tr := NewSharded(DefaultParams(), window, 1)
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), window.Slide)
	var out []CriticalPoint
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		out = append(out, tr.Slide(b).Fresh...)
	}
	return out
}

func TestInvariantDurativeEventsPairAndNest(t *testing.T) {
	points := collect(simFixes(t), stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute})
	type state struct{ stopped, slow, gap bool }
	states := make(map[uint32]*state)
	get := func(m uint32) *state {
		s := states[m]
		if s == nil {
			s = &state{}
			states[m] = s
		}
		return s
	}
	for _, cp := range points {
		s := get(cp.MMSI)
		switch cp.Type {
		case EventStopStart:
			if s.stopped {
				t.Fatalf("vessel %d: nested stopStart", cp.MMSI)
			}
			s.stopped = true
		case EventStopEnd:
			if !s.stopped {
				t.Fatalf("vessel %d: stopEnd without stopStart", cp.MMSI)
			}
			s.stopped = false
			if cp.Duration <= 0 {
				t.Fatalf("vessel %d: stop with non-positive duration", cp.MMSI)
			}
		case EventSlowStart:
			if s.slow {
				t.Fatalf("vessel %d: nested slowStart", cp.MMSI)
			}
			s.slow = true
		case EventSlowEnd:
			if !s.slow {
				t.Fatalf("vessel %d: slowEnd without slowStart", cp.MMSI)
			}
			s.slow = false
		case EventGapStart:
			if s.gap {
				t.Fatalf("vessel %d: nested gapStart", cp.MMSI)
			}
			s.gap = true
			// A gap interrupts any open durative run.
			if s.stopped || s.slow {
				t.Fatalf("vessel %d: gap started inside an open stop/slow episode", cp.MMSI)
			}
		case EventGapEnd:
			if !s.gap {
				t.Fatalf("vessel %d: gapEnd without gapStart", cp.MMSI)
			}
			s.gap = false
		}
	}
}

func TestInvariantPerVesselChronology(t *testing.T) {
	points := collect(simFixes(t), stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute})
	last := make(map[uint32]time.Time)
	for _, cp := range points {
		if prev, ok := last[cp.MMSI]; ok && cp.Time.Before(prev) {
			t.Fatalf("vessel %d: critical point at %v emitted after one at %v",
				cp.MMSI, cp.Time, prev)
		}
		last[cp.MMSI] = cp.Time
	}
}

func TestInvariantCriticalPointsWithinStreamExtent(t *testing.T) {
	fixes := simFixes(t)
	points := collect(fixes, stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute})
	lo, hi := fixes[0].Time, fixes[len(fixes)-1].Time
	for _, cp := range points {
		if cp.Time.Before(lo) || cp.Time.After(hi) {
			t.Fatalf("critical point outside stream extent: %v", cp)
		}
	}
}

// TestInvariantSlideGranularityIndependence: the motion-derived events
// (everything except gaps, whose detection is tied to slide boundaries)
// must not depend on how the stream is chopped into slides.
func TestInvariantSlideGranularityIndependence(t *testing.T) {
	fixes := simFixes(t)
	motionKey := func(points []CriticalPoint) map[string]int {
		out := make(map[string]int)
		for _, cp := range points {
			switch cp.Type {
			case EventGapStart, EventGapEnd:
				continue // slide-time detection differs by construction
			}
			out[fmt.Sprintf("%d/%s/%d", cp.MMSI, cp.Type, cp.Time.Unix())]++
		}
		return out
	}
	a := motionKey(collect(fixes, stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}))
	b := motionKey(collect(fixes, stream.WindowSpec{Range: time.Hour, Slide: 30 * time.Minute}))
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("event %s: count %d at β=5m but %d at β=30m", k, n, b[k])
		}
	}
	for k, n := range b {
		if a[k] != n {
			t.Fatalf("event %s: count %d at β=30m but %d at β=5m", k, n, a[k])
		}
	}
}

// TestInvariantDeltaConservation: every emitted critical point must
// eventually expire into the delta stream, exactly once, when the
// stream ends and the window drains.
func TestInvariantDeltaConservation(t *testing.T) {
	fixes := simFixes(t)
	window := stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute}
	tr := NewSharded(DefaultParams(), window, 1)
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), window.Slide)
	fresh := make(map[string]int)
	delta := make(map[string]int)
	key := func(cp CriticalPoint) string {
		return fmt.Sprintf("%d/%s/%d/%v", cp.MMSI, cp.Type, cp.Time.Unix(), cp.Pos)
	}
	var lastQ time.Time
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		res := tr.Slide(b)
		for _, cp := range res.Fresh {
			fresh[key(cp)]++
		}
		for _, cp := range res.Delta {
			delta[key(cp)]++
		}
		lastQ = b.Query
	}
	// Drain: slide far past the end (gap detection will add a final
	// round of gap-start points, which also belong in the ledger).
	for i := 1; i <= 3; i++ {
		res := tr.Slide(stream.Batch{Query: lastQ.Add(time.Duration(i) * window.Range)})
		for _, cp := range res.Fresh {
			fresh[key(cp)]++
		}
		for _, cp := range res.Delta {
			delta[key(cp)]++
		}
	}
	if tr.VesselCount() != 0 {
		t.Fatalf("%d vessels still live after draining", tr.VesselCount())
	}
	for k, n := range fresh {
		if delta[k] != n {
			t.Fatalf("point %s: emitted %d times but expired %d times", k, n, delta[k])
		}
	}
	for k, n := range delta {
		if fresh[k] != n {
			t.Fatalf("point %s: expired %d times but emitted %d times", k, delta[k], n)
		}
	}
}
