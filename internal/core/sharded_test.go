package core

import (
	"testing"
)

// runPipeline replays a seeded fleet through a full pipeline with the
// given tracker shard count and returns everything downstream consumes:
// per-slide reports plus the end state of tracker and store.
func runPipeline(t *testing.T, shards int) (*System, []SlideReport) {
	t.Helper()
	cfg := defaultSystemConfig()
	cfg.TrackerShards = shards
	sys, _, reports := buildSystem(t, simConfig(120, 4), cfg)
	return sys, reports
}

// TestShardedPipelineEquivalence asserts that the whole pipeline —
// critical points, alerts, reconstructed trips, tracker statistics — is
// invariant under the tracker shard count: the sharded tier's merged
// output must be indistinguishable from the serial tracker's as far as
// every downstream stage can observe.
func TestShardedPipelineEquivalence(t *testing.T) {
	serialSys, serialReports := runPipeline(t, 1)
	defer serialSys.Close()
	for _, shards := range []int{2, 4} {
		sys, reports := runPipeline(t, shards)
		if got := sys.Tracker().Shards(); got != shards {
			t.Fatalf("tracker has %d shards, want %d", got, shards)
		}
		if len(reports) != len(serialReports) {
			t.Fatalf("slide count %d != %d", len(reports), len(serialReports))
		}
		var totalAlerts int
		for i := range reports {
			a, b := serialReports[i], reports[i]
			if a.FixesIn != b.FixesIn || a.CriticalPoints != b.CriticalPoints ||
				a.TripsCompleted != b.TripsCompleted {
				t.Fatalf("slide %d: serial {fixes %d, critical %d, trips %d} != %d-shard {%d, %d, %d}",
					i, a.FixesIn, a.CriticalPoints, a.TripsCompleted,
					shards, b.FixesIn, b.CriticalPoints, b.TripsCompleted)
			}
			if len(a.Alerts) != len(b.Alerts) {
				t.Fatalf("slide %d: alert count %d != %d", i, len(a.Alerts), len(b.Alerts))
			}
			for j := range a.Alerts {
				if a.Alerts[j] != b.Alerts[j] {
					t.Fatalf("slide %d: alert %d differs: %v vs %v", i, j, a.Alerts[j], b.Alerts[j])
				}
			}
			totalAlerts += len(b.Alerts)
		}
		ss, gs := serialSys.Tracker().Stats(), sys.Tracker().Stats()
		if ss.FixesIn != gs.FixesIn || ss.Critical != gs.Critical ||
			ss.Duplicates != gs.Duplicates || ss.Outliers != gs.Outliers {
			t.Errorf("shards=%d: tracker stats differ: %+v vs %+v", shards, ss, gs)
		}
		st4, gt4 := serialSys.Store().Table4Stats(), sys.Store().Table4Stats()
		if st4 != gt4 {
			t.Errorf("shards=%d: MOD stats differ: %+v vs %+v", shards, st4, gt4)
		}
		if totalAlerts == 0 {
			t.Error("equivalence vacuous: no alerts recognized in the run")
		}
		sys.Close()
	}
}
