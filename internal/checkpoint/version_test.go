package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
)

// stateV2 is the layout version 2 checkpoints were written in, before
// State carried a cluster manifest's worker cut.
type stateV2 struct {
	Query  time.Time
	System core.Snapshot
	Cursor feed.Cursor
	Hub    *serve.HubSnapshot
	Slides int
}

// sameCheckpoint compares a checkpoint read back with the one saved.
// The store's bytes are compared apart: a store snapshot gob-encodes
// maps, so equal stores need not encode alike, but the bytes saved must
// come back as they were.
func sameCheckpoint(t *testing.T, via string, got, want *State) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no checkpoint", via)
	}
	if !bytes.Equal(got.System.Store, want.System.Store) {
		t.Errorf("%s: the store snapshot's bytes changed", via)
	}
	g, w := *got, *want
	g.System.Store, w.System.Store = nil, nil
	if !reflect.DeepEqual(&g, &w) {
		t.Errorf("%s: checkpoint read back differs from the one saved:\n got %+v\nwant %+v", via, g, w)
	}
}

// frameVersion reads the format version of a durable file.
func frameVersion(t *testing.T, path string) uint16 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, version, err := durable.ReadFrame(f, fileSpec.Magic, fileSpec.Version)
	if err != nil {
		t.Fatal(err)
	}
	return version
}

// writeAt writes v, gob-encoded, as checkpoint seq in dir, framed at
// the given format version.
func writeAt(t *testing.T, dir string, seq uint64, version uint16, v any) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatal(err)
	}
	err := durable.WriteFileAtomic(PathFor(dir, seq), func(w io.Writer) error {
		return durable.WriteFrame(w, fileSpec.Magic, version, payload.Bytes())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// versionState is a checkpoint of a system with recognition, the
// analytics tier and a gateway after compatSlides slides of the world
// it returns.
func versionState(t *testing.T) (*State, *fleetsim.Simulator, []stream.Batch) {
	t.Helper()
	sim, batches := compatWorld(t)
	sys := undisturbed(sim, batches, compatSlides)
	defer sys.Close()
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Recognizer == nil || snap.Analytics == nil || len(snap.Analytics.Vessels) == 0 || len(snap.Tracker.Vessels) == 0 {
		t.Fatal("the snapshot leaves a tier empty: the round trip would not exercise it")
	}
	return &State{
		Query:  batches[compatSlides-1].Query,
		System: snap,
		Cursor: feed.Cursor{Sec: batches[compatSlides-1].Query.Unix(), SeenAtSec: map[uint32]int{7: 2}},
		Hub:    &serve.HubSnapshot{Seq: 40, Published: 41, LogSeq: 39},
		Slides: compatSlides,
	}, sim, batches
}

// readsBack reads checkpoint seq of mgr back through every read path —
// Load, LoadAt and RestoreNewest — holds each to want, and returns what
// RestoreNewest restored.
func readsBack(t *testing.T, mgr *Manager, seq uint64, want *State) *State {
	t.Helper()
	got, err := Load(PathFor(mgr.Dir(), seq))
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "Load", got, want)
	if got, err = mgr.LoadAt(seq); err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "LoadAt", got, want)
	if got, err = mgr.RestoreNewest(); err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "RestoreNewest", got, want)
	return got
}

// TestVersion3CheckpointRoundTrip saves a checkpoint of a system with
// recognition, the analytics tier and a gateway: it is written at
// version 3, and every read path returns what was saved.
func TestVersion3CheckpointRoundTrip(t *testing.T) {
	want, _, _ := versionState(t)
	mgr := newTestManager(t, Options{})
	mustSave(t, mgr, testState(1))
	mustSave(t, mgr, want)
	if v := frameVersion(t, PathFor(mgr.Dir(), 2)); v != 3 {
		t.Fatalf("checkpoint written at version %d, want 3", v)
	}
	readsBack(t, mgr, 2, want)
}

// TestVersion2CheckpointRoundTrip reads a version-2 checkpoint, framed
// and laid out as the previous build saved it, through every read path:
// each returns what was saved, the worker cut zero, with no upgrade
// step, and the restored system continues as the uninterrupted run.
// The earlier build's own version-2 file, testdata/one-recognizer.ckpt,
// reads the same through LoadAt and RestoreNewest as through Load.
func TestVersion2CheckpointRoundTrip(t *testing.T) {
	want, sim, batches := versionState(t)
	mgr := newTestManager(t, Options{})
	mustSave(t, mgr, testState(1))
	writeAt(t, mgr.Dir(), 2, 2, stateV2{
		Query: want.Query, System: want.System, Cursor: want.Cursor, Hub: want.Hub, Slides: want.Slides,
	})
	continuation(t, sim, batches, readsBack(t, mgr, 2, want))

	const fixture = "testdata/one-recognizer.ckpt"
	if v := frameVersion(t, fixture); v != 2 {
		t.Fatalf("%s is at version %d, want 2", fixture, v)
	}
	loaded, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(PathFor(dir, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	readsBack(t, newTestManager(t, Options{Dir: dir}), 1, loaded)
}

// TestRefusesVersion1Checkpoint writes a version-1 checkpoint — in the
// current layout, which gob would decode field by field — above the
// earlier build's version-2 one: Load, LoadAt and a pinned restore
// refuse it with ErrRetiredVersion, and RestoreNewest skips it, counts
// it rejected and restores the checkpoint below it. A snapshot whose
// recognition does not match the system's is refused by RestoreSnapshot
// before it touches any state, so the system goes on exactly as if it
// had never been asked.
func TestRefusesVersion1Checkpoint(t *testing.T) {
	sim, batches := compatWorld(t)
	older := loadCompat(t, batches)
	b, err := os.ReadFile("testdata/one-recognizer.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(PathFor(dir, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	writeAt(t, dir, 2, 1, older)
	if _, err := Load(PathFor(dir, 2)); !errors.Is(err, ErrRetiredVersion) {
		t.Fatalf("Load of a version-1 checkpoint: err=%v, want ErrRetiredVersion", err)
	}
	mgr := newTestManager(t, Options{Dir: dir})
	if _, err := mgr.LoadAt(2); !errors.Is(err, ErrRetiredVersion) {
		t.Fatalf("LoadAt of a version-1 checkpoint: err=%v, want ErrRetiredVersion", err)
	}
	pinned := undisturbed(sim, batches, 0)
	defer pinned.Close()
	if _, err := Restore(RunConfig{System: pinned, Checkpoints: mgr, PinSeq: 2, Slide: testSlide}); !errors.Is(err, ErrRetiredVersion) {
		t.Fatalf("pinned restore of a version-1 checkpoint: err=%v, want ErrRetiredVersion", err)
	}
	reg := obs.NewRegistry()
	mgr.RegisterMetrics(reg)
	st, err := mgr.RestoreNewest()
	if st == nil || st.Slides != compatSlides || st.System.Recognizer == nil {
		t.Fatalf("RestoreNewest = (%+v, %v), want the version-2 checkpoint below the version-1 one", st, err)
	}
	if !errors.Is(err, ErrRetiredVersion) {
		t.Errorf("skip reason %v, want ErrRetiredVersion", err)
	}
	if got := metricValue(t, reg, "maritime_checkpoint_rejected_total"); got != 1 {
		t.Errorf("maritime_checkpoint_rejected_total = %v, want 1", got)
	}

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
