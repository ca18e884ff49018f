package maritime_test

import (
	"testing"
	"time"

	"repro/internal/expbench"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
)

// TestRecognizerAdvanceAllocs is the allocation gate of the recognition
// hot path: one query step over a warm 6 h window (72 overlapping
// windows per ME) and 140 areas. What a step may still allocate follows
// what it changed — the kept rule answers of the MEs it admitted, the
// intervals of the instances it derived again, the pieces of the
// vessels whose counts moved — not the window: no result map, no
// proximity answer per ask, no holder list per count, no index per
// query. Before the working memory was indexed the same step cost 3041
// allocations, and 156 while every step re-derived the whole window.
func TestRecognizerAdvanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	const window, slide, measured = 6 * time.Hour, 5 * time.Minute, 12
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels, cfg.NumAreas, cfg.Duration = 400, 140, window+(measured+2)*slide
	wl := expbench.BuildWorkloadFrom(cfg)
	slides, queries := expbench.MESlides(wl, slide)
	warm := int(window / slide)
	if len(slides) < warm+measured+1 {
		t.Fatalf("run too short: %d slides", len(slides))
	}
	rec := maritime.NewRecognizer(maritime.Config{Window: window}, wl.Vessels, wl.Areas)
	for i := 0; i < warm; i++ {
		rec.Advance(queries[i], slides[i], nil)
	}
	if n := rec.Engine().WorkingMemorySize(); n < 1000 {
		t.Fatalf("warm window holds only %d MEs", n)
	}
	i := warm
	allocs := testing.AllocsPerRun(measured, func() { // plus one warm-up call
		rec.Advance(queries[i], slides[i], nil)
		i++
	})
	const bound = 150 // measured 57
	t.Logf("%.0f allocs per query step over %d MEs", allocs, rec.Engine().WorkingMemorySize())
	if allocs > bound {
		t.Errorf("Recognizer.Advance allocates %.0f times per step, bound %d", allocs, bound)
	}
}
