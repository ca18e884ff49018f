package cluster

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// pairFleet builds a fleet seeded with scripted rendezvous and dark
// pairs, so pairwise alerts are guaranteed to appear in the output.
func pairFleet(t *testing.T, vessels, hours, pairs int) (*fleetsim.Simulator, []ais.Fix) {
	t.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = vessels
	cfg.Duration = time.Duration(hours) * time.Hour
	cfg.RendezvousPairs = pairs
	cfg.DarkPairs = pairs
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()
	if len(fixes) == 0 {
		t.Fatal("simulator produced no fixes")
	}
	return sim, fixes
}

// referenceRunAnalytics is referenceRun with the cross-vessel tier on:
// one process, recognition and pairwise analytics enabled. Returns the
// per-slide digests and the count of pairwise alerts by composite
// event, so callers can reject vacuous comparisons.
func referenceRunAnalytics(t *testing.T, sim *fleetsim.Simulator, fixes []ais.Fix) ([]string, map[string]int) {
	t.Helper()
	vessels, areas, ports := core.AdaptWorld(sim)
	sys := core.NewSystem(core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: testSlide},
		Tracker:       tracker.DefaultParams(),
		Recognition:   maritime.Config{Window: time.Hour},
		TrackerShards: 3,
		Analytics:     &analytics.Config{EnableCollision: true},
	}, vessels, areas, ports)
	defer sys.Close()
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), testSlide)
	var out []string
	pairCEs := make(map[string]int)
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		rep := sys.ProcessBatch(b)
		for _, a := range rep.Alerts {
			if a.Vessel2 != 0 {
				pairCEs[a.CE]++
			}
		}
		out = append(out, renderSlide(rep))
	}
	return out, pairCEs
}

// TestClusterPairwiseAnalyticsEquivalence extends the golden
// equivalence contract to the cross-vessel tier: with scripted
// rendezvous and dark pairs in the fleet and the analytics tier
// enabled, a single process and a 3-worker cluster must produce
// byte-identical per-slide output — pairwise alerts included. The tier
// runs post-merge on the coordinator, exactly where single-process
// recognition runs, so the merged critical-point stream it sees is the
// same on both paths.
func TestClusterPairwiseAnalyticsEquivalence(t *testing.T) {
	sim, raw := pairFleet(t, 120, 4, 2)
	fixes := canonFixes(t, raw)
	refSlides, pairCEs := referenceRunAnalytics(t, sim, fixes)
	if pairCEs[maritime.CERendezvous] == 0 || pairCEs[maritime.CEDarkRendezvous] == 0 {
		t.Fatalf("reference run emitted no pairwise alerts (%v); the equivalence check would be vacuous", pairCEs)
	}
	t.Logf("reference pairwise alerts: %v", pairCEs)

	res := runCluster(t, sim, fixes, clusterOpts{workers: 3, analytics: true})
	compareSlides(t, "cluster(3)+analytics", refSlides, res.slides)
}

// TestClusterManifestRestoreWithAnalytics tears the cluster down
// mid-run — while rendezvous streaks and open dark gaps are in
// flight — and restores it from the newest manifest. The manifest must
// carry the analytics tier's snapshot, and the combined output must be
// byte-identical to an uninterrupted run: a restore that reset the
// tier would drop or re-fire pairwise alerts after the cut.
func TestClusterManifestRestoreWithAnalytics(t *testing.T) {
	sim, raw := pairFleet(t, 120, 4, 2)
	fixes := canonFixes(t, raw)
	refSlides, pairCEs := referenceRunAnalytics(t, sim, fixes)
	if pairCEs[maritime.CERendezvous] == 0 || pairCEs[maritime.CEDarkRendezvous] == 0 {
		t.Fatalf("reference run emitted no pairwise alerts (%v); the restore check would be vacuous", pairCEs)
	}

	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	store, err := NewManifestStore(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("manifest store: %v", err)
	}
	phase1 := runCluster(t, sim, fixes, clusterOpts{
		workers:   3,
		analytics: true,
		ckptDirs:  dirs,
		ckptEvery: 4,
		manifests: store,
		stopSlide: 10,
	})
	if phase1.stats.Manifests == 0 {
		t.Fatal("no manifest was bound before the shutdown")
	}

	m, err := RestoreCluster(store, dirs)
	if err != nil {
		t.Fatalf("RestoreCluster: %v", err)
	}
	if m == nil {
		t.Fatal("RestoreCluster found nothing to restore")
	}
	if m.System.Analytics == nil {
		t.Fatal("manifest carried no analytics snapshot")
	}
	if m.Slides == 0 || m.Slides > len(phase1.slides) {
		t.Fatalf("manifest covers %d slides, phase 1 merged %d", m.Slides, len(phase1.slides))
	}
	// The restore only exercises the tier's carried-over state if
	// pairwise alerts still fire after the cut.
	post := false
	for _, s := range refSlides[m.Slides:] {
		if strings.Contains(s, "+") {
			post = true
			break
		}
	}
	if !post {
		t.Fatalf("no pairwise alerts after slide %d; the analytics restore check would be vacuous", m.Slides)
	}

	phase2 := runCluster(t, sim, fixes, clusterOpts{
		workers:   3,
		analytics: true,
		ckptDirs:  dirs,
		ckptEvery: 4,
		manifests: store,
		restore:   m,
		pinSeqs:   m.WorkerSeqs,
	})

	combined := append(slices.Clone(refSlides[:m.Slides]), phase2.slides...)
	compareSlides(t, "manifest restore with analytics", refSlides, combined)
}
