package checkpoint

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/feed"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

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

// TestVersion2CheckpointRoundTrip saves a checkpoint of a system with
// recognition, the analytics tier and a gateway, and reads it back
// through every read path: each must return what was saved.
func TestVersion2CheckpointRoundTrip(t *testing.T) {
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
	want := &State{
		Query:  batches[compatSlides-1].Query,
		System: snap,
		Cursor: feed.Cursor{Sec: batches[compatSlides-1].Query.Unix(), SeenAtSec: map[uint32]int{7: 2}},
		Hub:    &serve.HubSnapshot{Seq: 40, Published: 41, LogSeq: 39},
		Slides: compatSlides,
	}
	mgr := newTestManager(t, Options{})
	mustSave(t, mgr, testState(1))
	mustSave(t, mgr, want)
	path := PathFor(mgr.Dir(), 2)
	if v := frameVersion(t, path); v != 2 {
		t.Fatalf("checkpoint written at version %d, want 2", v)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "Load", got, want)
	if got, err = mgr.LoadAt(2); err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "LoadAt", got, want)
	if got, err = mgr.RestoreNewest(); err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "RestoreNewest", got, want)
}

// writeV1 writes st as checkpoint seq in dir, framed at format version
// 1.
func writeV1(t *testing.T, dir string, seq uint64, st *State) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		t.Fatal(err)
	}
	err := durable.WriteFileAtomic(PathFor(dir, seq), func(w io.Writer) error {
		return durable.WriteFrame(w, fileSpec.Magic, 1, payload.Bytes())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVersion1EdgeCases reads version-1 checkpoints whose layout gives
// the upgrade's overlays little to match: a system with recognition off
// and no analytics tier, and an analytics tier with no collision
// section. Both must decode, upgrade to what was written and restore.
func TestVersion1EdgeCases(t *testing.T) {
	sim, batches := compatWorld(t)
	vessels, areas, ports := core.AdaptWorld(sim)
	off := core.Config{
		Window:             stream.WindowSpec{Range: compatWindow, Slide: testSlide},
		Tracker:            tracker.DefaultParams(),
		DisableRecognition: true,
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"recognition off, no analytics", off},
		{"analytics without a collision section", compatConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := core.NewSystem(tc.cfg, vessels, areas, ports)
			defer sys.Close()
			for _, b := range batches[:compatSlides] {
				sys.ProcessBatch(b)
			}
			snap, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want := &State{Query: batches[compatSlides-1].Query, System: snap, Slides: compatSlides}
			dir := t.TempDir()
			writeV1(t, dir, 1, want)
			got, err := Load(PathFor(dir, 1))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			sameCheckpoint(t, "Load", got, want)
			restored := core.NewSystem(tc.cfg, vessels, areas, ports)
			defer restored.Close()
			if err := restored.RestoreSnapshot(got.System); err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			sameState(t, restored, sys)
		})
	}
}
