package cli

import (
	"testing"
	"time"
)

// TestPipelineConfigDegradeThresholds: with -degrade and no explicit
// thresholds the ladder climbs at 80 % of the slide and, with a bounded
// ingest backlog, at 3/4 of it; a lossless ingest has no depth bound.
func TestPipelineConfigDegradeThresholds(t *testing.T) {
	for _, tc := range []struct {
		name      string
		p         func(*Pipeline)
		slideHigh time.Duration
		depthHigh int
	}{
		{"derived", func(p *Pipeline) {}, 8 * time.Minute, 6144},
		{"lossless", func(p *Pipeline) { p.IngestBuffer = 0 }, 8 * time.Minute, 0},
		{"explicit", func(p *Pipeline) { p.DegradeSlideHigh, p.DegradeDepthHigh = time.Minute, 10 }, time.Minute, 10},
	} {
		p := DefaultPipeline()
		p.Degrade = true
		tc.p(&p)
		d := p.Config().Degrade
		if d == nil || d.SlideHigh != tc.slideHigh || d.DepthHigh != tc.depthHigh {
			t.Errorf("%s: degrade spec %+v, want slide-high %s depth-high %d", tc.name, d, tc.slideHigh, tc.depthHigh)
		}
	}
	if p := DefaultPipeline(); p.Config().Degrade != nil || p.Config().Analytics != nil {
		t.Error("the default pipeline degrades or runs the pairwise tier")
	}
}
