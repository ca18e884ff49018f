package cluster

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/durable"
	"repro/internal/feed"
	"repro/internal/serve"
)

// TestVersion2ManifestRoundTrip saves a manifest holding a coordinator
// snapshot with recognition and the analytics tier, and reads it back
// through LoadManifest and RestoreCluster: each must return what was
// saved (the store's bytes compared apart, as bytes).
func TestVersion2ManifestRoundTrip(t *testing.T) {
	world := newCompatWorld(t)
	coord, _ := compatCoordinator(t, world, nil, nil)
	for _, s := range world.slides[:compatSlides] {
		coord.ingest(s)
	}
	snap, err := coord.sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Recognizer == nil || snap.Analytics == nil || len(snap.Analytics.Vessels) == 0 {
		t.Fatal("the coordinator snapshot leaves a tier empty: the round trip would not exercise it")
	}
	store, dirs := seedGenerations(t, 2)
	want := &Manifest{
		Query:      world.slides[compatSlides-1].Query,
		Workers:    2,
		WorkerSeqs: []uint64{2, 1},
		Cursor:     feed.Cursor{Sec: 1000, SeenAtSec: map[uint32]int{7: 2, 9: 1}},
		System:     snap,
		Hub:        &serve.HubSnapshot{Seq: 40, Published: 41},
		Slides:     compatSlides,
	}
	if err := store.Save(want); err != nil {
		t.Fatal(err)
	}
	path := store.store.Path(store.Seq())
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, version, err := durable.ReadFrame(f, manifestSpec.Magic, manifestSpec.Version)
	f.Close()
	if err != nil || version != 2 {
		t.Fatalf("manifest written at version %d (%v), want 2", version, err)
	}
	same := func(via string, got *Manifest) {
		t.Helper()
		if got == nil {
			t.Fatalf("%s: no manifest", via)
		}
		if !bytes.Equal(got.System.Store, want.System.Store) {
			t.Errorf("%s: the store snapshot's bytes changed", via)
		}
		g, w := *got, *want
		g.System.Store, w.System.Store = nil, nil
		if !reflect.DeepEqual(&g, &w) {
			t.Errorf("%s: manifest read back differs from the one saved:\n got %+v\nwant %+v", via, g, w)
		}
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	same("LoadManifest", got)
	if got, err = RestoreCluster(store, dirs); err != nil {
		t.Fatal(err)
	}
	same("RestoreCluster", got)
}
