package cluster

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/feed"
	"repro/internal/serve"
)

// manifestV2 is the layout version 2 manifests were written in, by the
// cluster's own manifest type before a manifest was a checkpoint.State.
type manifestV2 struct {
	Query      time.Time
	Workers    int
	WorkerSeqs []uint64
	Cursor     feed.Cursor
	System     core.Snapshot
	Hub        *serve.HubSnapshot
	Slides     int
}

// versionWorld returns a manifest of a one-worker coordinator with
// recognition and the analytics tier after compatSlides slides of the
// world, bound to the second of the two generations seedGenerations
// writes, and the store and worker directory holding them.
func versionWorld(t *testing.T) (*checkpoint.State, compatWorld, *checkpoint.Manager, []string) {
	t.Helper()
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
	store, dirs := seedGenerations(t, 1)
	want := &checkpoint.State{
		Query:      world.slides[compatSlides-1].Query,
		System:     snap,
		Cursor:     feed.Cursor{Sec: 1000, SeenAtSec: map[uint32]int{7: 2, 9: 1}},
		Hub:        &serve.HubSnapshot{Seq: 40, Published: 41},
		Slides:     compatSlides,
		Workers:    1,
		WorkerSeqs: []uint64{2},
	}
	return want, world, store, dirs
}

// sameManifest compares a manifest read back with the one saved, the
// store's bytes compared apart, as bytes: a store snapshot gob-encodes
// maps, so equal stores need not encode alike.
func sameManifest(t *testing.T, via string, got, want *checkpoint.State) {
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

// manifestVersion reads the format version of manifest seq in dir.
func manifestVersion(t *testing.T, dir string, seq uint64) uint16 {
	t.Helper()
	f, err := os.Open(manifestPath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, version, err := durable.ReadFrame(f, "MARMANI", 3)
	if err != nil {
		t.Fatal(err)
	}
	return version
}

// readsBack reads manifest seq of store back through every read path —
// LoadAt, RestoreNewest and RestoreCluster — holds each to want, and
// returns what RestoreCluster restored.
func readsBack(t *testing.T, store *checkpoint.Manager, dirs []string, seq uint64, want *checkpoint.State) *checkpoint.State {
	t.Helper()
	got, err := store.LoadAt(seq)
	if err != nil {
		t.Fatal(err)
	}
	sameManifest(t, "LoadAt", got, want)
	if got, err = store.RestoreNewest(); err != nil {
		t.Fatal(err)
	}
	sameManifest(t, "RestoreNewest", got, want)
	if got, err = RestoreCluster(store, dirs); err != nil {
		t.Fatal(err)
	}
	sameManifest(t, "RestoreCluster", got, want)
	return got
}

// TestVersion3ManifestRoundTrip saves a manifest holding a coordinator
// snapshot with recognition and the analytics tier: it is written at
// version 3 and every read path returns what was saved.
func TestVersion3ManifestRoundTrip(t *testing.T) {
	want, _, store, dirs := versionWorld(t)
	if err := store.Save(want); err != nil {
		t.Fatal(err)
	}
	if v := manifestVersion(t, store.Dir(), store.LastSeq()); v != 3 {
		t.Fatalf("manifest written at version %d, want 3", v)
	}
	readsBack(t, store, dirs, store.LastSeq(), want)
}

// TestVersion2ManifestRoundTrip reads a version-2 manifest, framed and
// laid out as the previous build saved it, through every read path:
// each returns what was saved, with no upgrade step, and the coordinator
// restored from the whole-cluster restore merges on as one never
// restarted. The earlier build's own version-2 file,
// testdata/coordinator.mft, reads the same through LoadAt and
// RestoreNewest (TestRestoresEarlierManifest takes it through
// RestoreCluster and on to the merged output).
func TestVersion2ManifestRoundTrip(t *testing.T) {
	want, world, store, dirs := versionWorld(t)
	var payload bytes.Buffer
	err := gob.NewEncoder(&payload).Encode(manifestV2{
		Query: want.Query, Workers: want.Workers, WorkerSeqs: want.WorkerSeqs,
		Cursor: want.Cursor, System: want.System, Hub: want.Hub, Slides: want.Slides,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = durable.WriteFileAtomic(manifestPath(store.Dir(), 3), func(w io.Writer) error {
		return durable.WriteFrame(w, "MARMANI", 2, payload.Bytes())
	})
	if err != nil {
		t.Fatal(err)
	}
	continuation(t, world, readsBack(t, store, dirs, 3, want))

	fixture, _ := fixtureCluster(t)
	if v := manifestVersion(t, fixture.Dir(), 1); v != 2 {
		t.Fatalf("testdata/coordinator.mft is at version %d, want 2", v)
	}
	loaded, err := fixture.LoadAt(1)
	if err != nil {
		t.Fatal(err)
	}
	newest, err := fixture.RestoreNewest()
	if err != nil {
		t.Fatal(err)
	}
	sameManifest(t, "RestoreNewest of testdata/coordinator.mft", newest, loaded)
}
