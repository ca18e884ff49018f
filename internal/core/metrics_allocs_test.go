package core

import (
	"testing"
	"time"

	"repro/internal/maritime"
	"repro/internal/obs"
)

// TestObserveAllocs is the allocation gate of the per-slide metrics: a
// slide report with alerts of several CEs costs no allocation once each
// CE's counter is resolved. A registry lookup per alert cost a label
// map, a rendered label string and an escaper each.
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	s := NewSystem(defaultSystemConfig(), nil, nil, nil)
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	var rep SlideReport
	for i, ce := range []string{maritime.CESuspicious, maritime.CEIllegalShipping, maritime.CERendezvous, maritime.CECollisionCourse} {
		for k := 0; k < 50; k++ {
			rep.Alerts = append(rep.Alerts, maritime.Alert{CE: ce, AreaID: "a", Time: time.Unix(int64(i*100+k), 0)})
		}
	}
	rep.Timings.Wall = time.Millisecond
	s.metrics.observe(rep) // resolves the counters
	if allocs := testing.AllocsPerRun(20, func() { s.metrics.observe(rep) }); allocs != 0 {
		t.Errorf("observe allocates %.0f times per slide of %d alerts, want 0", allocs, len(rep.Alerts))
	}
	if got := s.metrics.alerts[maritime.CESuspicious].Value(); got != 50*22 {
		t.Errorf("suspicious alerts counted %v, want %d", got, 50*22)
	}
}
