package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/rtec"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// testdata/coordinator.mft is a manifest an earlier build's coordinator
// wrote (commit 5c21031, when core.System could still split recognition
// into longitude bands; the coordinator ran one recognizer): a
// one-worker cluster over the world below, cut after compatSlides
// slides. Commit f5761a0 read it through its version-1 upgrade and
// saved it again at format version 2, the one before this binary's.
// parentContinuation is the digest of what that build's coordinator,
// restored from it, merged for the rest of the stream.
const (
	compatSlides       = 15
	compatWindow       = 2 * time.Hour
	parentContinuation = "b31b56abc1b12962bb1d4d25bba44e5a5c588e91b17973a0a3c03fbcd3ce937d"
)

// compatCoordinator builds a one-worker coordinator over the world,
// restored from m when it is not nil, and a digest of every slide it
// merges: the alerts (pairwise ones with both vessels) and the maximal
// intervals of both durative CEs for every area after the slide.
func compatCoordinator(t *testing.T, world compatWorld, m *checkpoint.State, manifests *checkpoint.Manager) (*Coordinator, hash.Hash) {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers: 1,
		System: core.Config{
			Window:      stream.WindowSpec{Range: compatWindow, Slide: testSlide},
			Tracker:     tracker.DefaultParams(),
			Recognition: maritime.Config{Window: compatWindow},
			SelfHeal:    true,
			Analytics:   &analytics.Config{EnableCollision: true},
		},
		Vessels:   world.vessels,
		Areas:     world.areas,
		Ports:     world.ports,
		Manifests: manifests,
		Restore:   m,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	coord.AddAlertSink(sinkFunc(func(rep core.SlideReport) {
		fmt.Fprintf(h, "slide %d cps=%d\n", rep.Query.Unix(), rep.CriticalPoints)
		for _, a := range rep.Alerts {
			fmt.Fprintf(h, "%s %d %d\n", a, a.Vessel, a.Vessel2)
		}
		for _, a := range world.areas {
			for _, ce := range []string{maritime.CESuspicious, maritime.CEIllegalFishing} {
				key := rtec.FluentKey{Fluent: ce, Entity: a.ID, Value: rtec.True}
				if ivs := coord.sys.Recognizer().Engine().HoldsFor(key); ivs != nil {
					fmt.Fprintf(h, "%s(%s) %v\n", ce, a.ID, ivs)
				}
			}
		}
	}))
	return coord, h
}

// sinkFunc adapts a function to core.AlertSink.
type sinkFunc func(core.SlideReport)

func (f sinkFunc) Consume(rep core.SlideReport) { f(rep) }

// compatWorld is the world the manifest was cut from, and the slides
// its one worker reported: each slide's critical points.
type compatWorld struct {
	vessels []maritime.Vessel
	areas   []maritime.Area
	ports   []mod.PortArea
	slides  []*SlideOutput
}

func newCompatWorld(t *testing.T) compatWorld {
	t.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels, cfg.Duration, cfg.RendezvousPairs = 80, 5*time.Hour, 2
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()
	var w compatWorld
	w.vessels, w.areas, w.ports = core.AdaptWorld(sim)
	tr := tracker.NewSharded(tracker.DefaultParams(), stream.WindowSpec{Range: compatWindow, Slide: testSlide}, 1)
	defer tr.Close()
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), testSlide)
	var cur feed.Cursor
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		res := tr.Slide(b)
		for _, f := range b.Fixes {
			cur.Note(f)
		}
		out := &SlideOutput{Query: res.Query, FixesIn: len(b.Fixes), Fresh: slices.Clone(res.Fresh)}
		if len(w.slides)+1 == compatSlides {
			out.CkptSeq, out.CkptCursor = 1, new(feed.Cursor)
			*out.CkptCursor = cur.Clone()
		}
		w.slides = append(w.slides, out)
	}
	if len(w.slides) <= compatSlides+1 {
		t.Fatalf("stream has %d slides, the manifest was cut after %d", len(w.slides), compatSlides)
	}
	return w
}

// fixtureCluster puts testdata/coordinator.mft into a manifest
// directory as its one generation and gives the cluster's one worker a
// checkpoint at the sequence the manifest records, so RestoreCluster
// finds the generation whole.
func fixtureCluster(t *testing.T) (*checkpoint.Manager, []string) {
	t.Helper()
	b, err := os.ReadFile("testdata/coordinator.mft")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(manifestPath(dir, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.NewManifestManager(checkpoint.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.LoadAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 1 || len(m.WorkerSeqs) != 1 {
		t.Fatalf("fixture binds %d workers (%v), want one", m.Workers, m.WorkerSeqs)
	}
	worker := t.TempDir()
	mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: worker, Keep: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for mgr.LastSeq() < m.WorkerSeqs[0] {
		if err := mgr.Save(&checkpoint.State{Query: m.Query, Cursor: m.Cursor, Slides: m.Slides}); err != nil {
			t.Fatal(err)
		}
	}
	return store, []string{worker}
}

// TestRestoresEarlierManifest restores the whole cluster from the
// manifest the earlier build wrote, the coordinator from it, and merges
// the rest of the stream: the output must be byte-identical to what
// that build merged from the same manifest, and to a coordinator that
// was never restarted.
func TestRestoresEarlierManifest(t *testing.T) {
	world := newCompatWorld(t)
	store, dirs := fixtureCluster(t)
	m, err := RestoreCluster(store, dirs)
	if err != nil || m == nil {
		t.Fatalf("RestoreCluster = (%v, %v), want the fixture's generation", m, err)
	}
	if m.Slides != compatSlides || !m.Query.Equal(world.slides[compatSlides-1].Query) {
		t.Fatalf("manifest after %d slides at %s, want %d at %s", m.Slides, m.Query, compatSlides, world.slides[compatSlides-1].Query)
	}
	if m.System.Recognizer == nil {
		t.Fatal("manifest carries no recognizer state")
	}
	if g := continuation(t, world, m); g != parentContinuation {
		t.Errorf("continuation digest %s, the earlier build gave %s", g, parentContinuation)
	}
}

// continuation restores a one-worker coordinator from m, a manifest cut
// after compatSlides slides of the world, and merges the rest of the
// stream: the output must be byte-identical to a coordinator's that was
// never restarted. It returns the continuation's digest.
func continuation(t *testing.T, world compatWorld, m *checkpoint.State) string {
	t.Helper()
	restored, got := compatCoordinator(t, world, m, nil)
	ref, want := compatCoordinator(t, world, nil, nil)
	for i, s := range world.slides {
		if i >= compatSlides {
			restored.ingest(s)
		}
		ref.ingest(s)
		if i+1 == compatSlides {
			want.Reset() // the restored coordinator merges from here on
		}
	}
	if st := restored.Stats(); st.SlidesMerged != len(world.slides)-compatSlides || st.Alerts == 0 {
		t.Fatalf("restored coordinator merged %d slides with %d alerts, want %d slides with alerts",
			st.SlidesMerged, st.Alerts, len(world.slides)-compatSlides)
	}
	g, w := hex.EncodeToString(got.Sum(nil)), hex.EncodeToString(want.Sum(nil))
	if g != w {
		t.Errorf("continuation digest %s, the coordinator that was never restarted gives %s", g, w)
	}
	return g
}
