package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/rtec"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// Checkpoints written by an earlier build, when core.System could still
// split recognition into longitude bands (commit 5c21031, with the
// world, configuration and slide below):
//
//   - testdata/one-recognizer.ckpt: the state after compatSlides slides
//     of a one-recognizer system, the configuration every driver ran;
//   - testdata/two-bands.ckpt: the same slides through a system that
//     split recognition into two bands, so its snapshot carries two
//     recognizer states.
//
// parentContinuation is compatDigest of the slides after the checkpoint,
// run by that build from the one-recognizer checkpoint.
const (
	compatSlides       = 15
	compatWindow       = 2 * time.Hour
	parentContinuation = "a46d217c90af1cbaa064d01561b5aeded9892030fd29b33e2b44e9f979c24f54"
)

// compatConfig is the production configuration the checkpoints were
// taken with: self-heal, a watchdog and the pairwise tier on.
func compatConfig() core.Config {
	return core.Config{
		Window:          stream.WindowSpec{Range: compatWindow, Slide: testSlide},
		Tracker:         tracker.DefaultParams(),
		Recognition:     maritime.Config{Window: compatWindow},
		TrackerShards:   2,
		SelfHeal:        true,
		WatchdogTimeout: 5 * time.Second,
		Analytics:       &analytics.Config{EnableCollision: true},
	}
}

// compatWorld is the world and slide stream the checkpoints were taken
// over; the slides after the cut recognize every CE kind.
func compatWorld(t *testing.T) (*fleetsim.Simulator, []stream.Batch) {
	t.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels, cfg.Duration, cfg.RendezvousPairs = 80, 5*time.Hour, 2
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()
	batches := batchesOf(stream.NewBatcher(stream.NewSliceSource(fixes), testSlide))
	if len(batches) <= compatSlides+1 {
		t.Fatalf("stream has %d slides, the checkpoints were taken after %d", len(batches), compatSlides)
	}
	return sim, batches
}

// compatDigest runs batches through sys and hashes what it emits: each
// slide's alerts (pairwise ones with both vessels), critical points and
// trips, after each slide the maximal intervals of both durative CEs for
// every area, and at the end the drained archival state. It also
// returns how many alerts of each CE the slides raised.
func compatDigest(sys *core.System, areas []maritime.Area, batches []stream.Batch) (string, map[string]int) {
	h := sha256.New()
	alerts := make(map[string]int)
	for _, b := range batches {
		rep := sys.ProcessBatch(b)
		fmt.Fprintf(h, "slide %d fixes=%d cps=%d trips=%d\n", rep.Query.Unix(), rep.FixesIn, rep.CriticalPoints, rep.TripsCompleted)
		for _, a := range rep.Alerts {
			alerts[a.CE]++
			fmt.Fprintf(h, "%s %d %d\n", a, a.Vessel, a.Vessel2)
		}
		for _, a := range areas {
			for _, ce := range []string{maritime.CESuspicious, maritime.CEIllegalFishing} {
				key := rtec.FluentKey{Fluent: ce, Entity: a.ID, Value: rtec.True}
				if ivs := sys.Recognizer().Engine().HoldsFor(key); ivs != nil {
					fmt.Fprintf(h, "%s(%s) %v\n", ce, a.ID, ivs)
				}
			}
		}
	}
	sys.Drain(batches[len(batches)-1].Query)
	fmt.Fprintln(h, renderFinal(sys))
	return hex.EncodeToString(h.Sum(nil)), alerts
}

// loadCompat loads the earlier build's one-recognizer checkpoint and
// checks it is the cut the test expects.
func loadCompat(t *testing.T, batches []stream.Batch) *State {
	t.Helper()
	st, err := Load("testdata/one-recognizer.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if st.Slides != compatSlides || !st.Query.Equal(batches[compatSlides-1].Query) {
		t.Fatalf("checkpoint after %d slides at %s, want %d at %s",
			st.Slides, st.Query, compatSlides, batches[compatSlides-1].Query)
	}
	if st.System.Recognizer == nil {
		t.Fatal("the checkpoint carries no recognizer state")
	}
	return st
}

// undisturbed returns a system that processed the first n batches.
func undisturbed(sim *fleetsim.Simulator, batches []stream.Batch, n int) *core.System {
	vessels, areas, ports := core.AdaptWorld(sim)
	sys := core.NewSystem(compatConfig(), vessels, areas, ports)
	for _, b := range batches[:n] {
		sys.ProcessBatch(b)
	}
	return sys
}

// sameState compares two systems' recognizer, tracker and analytics
// snapshots (the store's snapshot gob-encodes maps, so its bytes differ
// between equal stores; compatDigest covers its contents).
func sameState(t *testing.T, got, want *core.System) {
	t.Helper()
	gs, err := got.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gs.Store, ws.Store = nil, nil
	if !reflect.DeepEqual(gs, ws) {
		t.Error("recognizer, tracker or analytics snapshots diverged")
	}
}

// TestRestoresEarlierOneRecognizerCheckpoint restores a checkpoint the
// earlier build took from a one-recognizer system and continues the
// stream: the output must be byte-identical to what that build produced
// from the same checkpoint, and to an uninterrupted run.
func TestRestoresEarlierOneRecognizerCheckpoint(t *testing.T) {
	sim, batches := compatWorld(t)
	st := loadCompat(t, batches)
	vessels, areas, ports := core.AdaptWorld(sim)
	restored := core.NewSystem(compatConfig(), vessels, areas, ports)
	defer restored.Close()
	if err := restored.RestoreSnapshot(st.System); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	got, alerts := compatDigest(restored, areas, batches[compatSlides:])
	for _, ce := range []string{maritime.CEIllegalShipping, maritime.CEDangerousShipping, maritime.CESuspicious, maritime.CEIllegalFishing} {
		if alerts[ce] == 0 {
			t.Errorf("no %s after the cut: the continuation does not exercise it (%v)", ce, alerts)
		}
	}
	if got != parentContinuation {
		t.Errorf("continuation digest %s, the earlier build gave %s", got, parentContinuation)
	}
	ref := undisturbed(sim, batches, compatSlides)
	defer ref.Close()
	if want, _ := compatDigest(ref, areas, batches[compatSlides:]); got != want {
		t.Errorf("continuation digest %s, the uninterrupted run gives %s", got, want)
	}
	sameState(t, restored, ref)
}

// TestRefusesTwoBandCheckpoint reads the earlier build's two-band
// checkpoint: its two recognizer states fit no system, so Load refuses
// it with ErrTopologyMismatch, and RestoreNewest skips it, counts it
// rejected and restores the valid checkpoint below it. A snapshot whose
// recognition does not match the system's is refused by RestoreSnapshot
// before it touches any state, so the system goes on exactly as if it
// had never been asked.
func TestRefusesTwoBandCheckpoint(t *testing.T) {
	if _, err := Load("testdata/two-bands.ckpt"); !errors.Is(err, core.ErrTopologyMismatch) {
		t.Fatalf("Load of a two-band checkpoint: err=%v, want ErrTopologyMismatch", err)
	}

	dir := t.TempDir()
	for seq, name := range map[uint64]string{1: "one-recognizer.ckpt", 2: "two-bands.ckpt"} {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(PathFor(dir, seq), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mgr := newTestManager(t, Options{Dir: dir})
	reg := obs.NewRegistry()
	mgr.RegisterMetrics(reg)
	st, err := mgr.RestoreNewest()
	if st == nil || st.Slides != compatSlides || st.System.Recognizer == nil {
		t.Fatalf("RestoreNewest = (%+v, %v), want the one-recognizer checkpoint below the two-band one", st, err)
	}
	if !errors.Is(err, core.ErrTopologyMismatch) {
		t.Errorf("skip reason %v, want ErrTopologyMismatch", err)
	}
	if got := metricValue(t, reg, "maritime_checkpoint_rejected_total"); got != 1 {
		t.Errorf("maritime_checkpoint_rejected_total = %v, want 1", got)
	}

	sim, batches := compatWorld(t)
	const done = 4
	sys := undisturbed(sim, batches, done)
	defer sys.Close()
	st.System.Recognizer = nil
	if err := sys.RestoreSnapshot(st.System); !errors.Is(err, core.ErrTopologyMismatch) {
		t.Fatalf("RestoreSnapshot of a snapshot without recognition: err=%v, want ErrTopologyMismatch", err)
	}
	ref := undisturbed(sim, batches, done)
	defer ref.Close()
	sameState(t, sys, ref)
	_, areas, _ := core.AdaptWorld(sim)
	got, _ := compatDigest(sys, areas, batches[done:])
	if want, _ := compatDigest(ref, areas, batches[done:]); got != want {
		t.Errorf("after the refused restore the run diverged: digest %s, undisturbed %s", got, want)
	}
}
