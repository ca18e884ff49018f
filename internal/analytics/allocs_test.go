package analytics_test

import (
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/expbench"
	"repro/internal/fleetsim"
	"repro/internal/stream"
)

// TestTierSlideAllocs is the allocation gate of the pairwise screening
// path on the paced benchmark shape (N = 1500 with 30 + 30 scripted
// pairs, ω = 2 h, β = 1 min): a slide of a warm tier may allocate what
// it returns and what it remembers — the alert slice, state for a vessel
// that enters or comes back after going stale, a pair or grid cell seen
// for the first time — and nothing per live vessel or per candidate
// pair. Before the scratch was reused and the pair loop went linear the
// same slide cost tens of thousands of allocations, several per pair.
func TestTierSlideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	const slide, warm, measured = time.Minute, 30, 12
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels, cfg.RendezvousPairs, cfg.DarkPairs = 1500, 30, 30
	cfg.Duration = (warm + measured + 2) * slide
	wl := expbench.BuildWorkloadFrom(cfg)
	slides, queries := expbench.CriticalSlides(wl, stream.WindowSpec{Range: 2 * time.Hour, Slide: slide})
	if len(slides) < warm+measured+1 {
		t.Fatalf("run too short: %d slides", len(slides))
	}
	tier := analytics.New(analytics.Config{EnableCollision: true}, core.PortPolys(wl.Ports))
	for i := 0; i < warm; i++ {
		tier.Slide(queries[i], slides[i])
	}
	if n := tier.LastSlideCost()[analytics.ScreenCollision].Pairs; n < 1000 {
		t.Fatalf("warm tier screens only %d candidate pairs a slide", n)
	}
	i, alerts := warm, 0
	allocs := testing.AllocsPerRun(measured, func() { // plus one warm-up call
		alerts += len(tier.Slide(queries[i], slides[i]))
		i++
	})
	perSlide := float64(alerts) / (measured + 1)
	bound := 60 + perSlide // measured 23 at 19 alerts a slide
	t.Logf("%.0f allocs per slide at %.0f alerts and %d candidate pairs a slide",
		allocs, perSlide, tier.LastSlideCost()[analytics.ScreenCollision].Pairs)
	if allocs > bound {
		t.Errorf("Tier.Slide allocates %.0f times per slide, bound %.0f", allocs, bound)
	}
}
