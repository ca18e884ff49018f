package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/rtec"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// holdsFor returns the maximal intervals of a durative CE for an area as
// of the last slide.
func holdsFor(sys *System, ce, areaID string) rtec.IntervalList {
	return sys.Recognizer().Engine().HoldsFor(rtec.FluentKey{Fluent: ce, Entity: areaID, Value: rtec.True})
}

// recognitionDigest runs a fleet through core.System and hashes what
// recognition produced: every slide's alerts, in order, and after every
// slide the maximal intervals of both durative CEs for every area.
func recognitionDigest(t *testing.T, simCfg fleetsim.Config, window, slide time.Duration) (string, int) {
	t.Helper()
	sim := fleetsim.NewSimulator(simCfg)
	fixes := sim.Run()
	vessels, areas, ports := AdaptWorld(sim)
	sys := NewSystem(Config{
		Window:      stream.WindowSpec{Range: window, Slide: slide},
		Tracker:     tracker.DefaultParams(),
		Recognition: maritime.Config{Window: window},
		Analytics:   &analytics.Config{EnableCollision: true},
	}, vessels, areas, ports)
	h := sha256.New()
	alerts := 0
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), slide)
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		rep := sys.ProcessBatch(b)
		fmt.Fprintf(h, "slide %d\n", b.Query.Unix())
		for _, a := range rep.Alerts {
			fmt.Fprintf(h, "%s %d %d\n", a, a.Vessel, a.Vessel2)
			if a.Vessel2 == 0 {
				alerts++
			}
		}
		for _, a := range areas {
			for _, ce := range []string{maritime.CESuspicious, maritime.CEIllegalFishing} {
				if ivs := holdsFor(sys, ce, a.ID); ivs != nil {
					fmt.Fprintf(h, "%s(%s) %v\n", ce, a.ID, ivs)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), alerts
}

// TestRecognitionDigestPinned pins what recognition emits on scaled-down
// versions of the benchmark's recognition-heavy shapes — alert-dense
// (140 areas, ω = 6 h, β = 5 min, scripted pairs, pairwise screening)
// and the paced one (35 areas, ω = 2 h, β = 1 min) — at seeds 1 and 7.
// The digests were recorded with the engine that re-derived every CE
// over the whole window at every query time; the incremental engine must
// reproduce them bit for bit.
func TestRecognitionDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates four fleets")
	}
	for _, c := range []struct {
		name                string
		seed                int64
		areas, pairs, hours int
		window, slide       time.Duration
		want                string
	}{
		{"alert-dense", 1, 140, 8, 10, 6 * time.Hour, 5 * time.Minute, "6538904ca48a9f4ce73256167755fea64ed56c2b805b52c0b4e6813de907f746"},
		{"alert-dense", 7, 140, 8, 10, 6 * time.Hour, 5 * time.Minute, "a04c24a71635c5089e5ba8842b3a67899bc7df8ad58adb4a77c77054c9648540"},
		{"paced", 1, 35, 8, 5, 2 * time.Hour, time.Minute, "6fbeb1304a94ee9b910f212314adb023bc763e22154761afdcff7bb412e2f955"},
		{"paced", 7, 35, 8, 5, 2 * time.Hour, time.Minute, "5495c27c7a0cbceb6f01f5836802355a513d1d4e962a342d708717c24b3dfd1a"},
	} {
		cfg := fleetsim.DefaultConfig()
		cfg.Seed = c.seed
		cfg.Vessels = 600
		cfg.NumAreas = c.areas
		cfg.Duration = time.Duration(c.hours) * time.Hour
		cfg.RendezvousPairs = c.pairs
		cfg.DarkPairs = c.pairs
		got, alerts := recognitionDigest(t, cfg, c.window, c.slide)
		t.Logf("%s seed %d: %d recognition alerts, digest %s", c.name, c.seed, alerts, got)
		if alerts == 0 {
			t.Errorf("%s seed %d: no recognition alert; the digest covers nothing", c.name, c.seed)
		}
		if got != c.want {
			t.Errorf("%s seed %d: digest %s, want %s", c.name, c.seed, got, c.want)
		}
	}
}
