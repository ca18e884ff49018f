package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/feed"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// coordinatorSystem is a coordinator's pipeline configuration over an
// empty world, enough to build one and snapshot it.
func coordinatorSystem() core.Config {
	return core.Config{
		Window:      stream.WindowSpec{Range: time.Hour, Slide: testSlide},
		Tracker:     tracker.DefaultParams(),
		Recognition: maritime.Config{Window: time.Hour},
	}
}

// seedGenerations writes two complete cluster generations — every
// worker checkpointed at seq 1 and 2, one manifest binding each — and
// returns the manifest store and worker directories.
func seedGenerations(t *testing.T, workers int) (*ManifestStore, []string) {
	t.Helper()
	dirs := make([]string, workers)
	base := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	for w := range dirs {
		dirs[w] = t.TempDir()
		mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: dirs[w]})
		if err != nil {
			t.Fatalf("worker %d manager: %v", w, err)
		}
		for gen := 1; gen <= 2; gen++ {
			st := &checkpoint.State{
				Query:  base.Add(time.Duration(gen) * 40 * time.Minute),
				Cursor: feed.Cursor{Sec: int64(gen)},
				Slides: gen * 4,
			}
			if err := mgr.Save(st); err != nil {
				t.Fatalf("worker %d gen %d: %v", w, gen, err)
			}
		}
	}
	store, err := NewManifestStore(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("manifest store: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: workers, System: coordinatorSystem()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	snap, err := coord.sys.Snapshot()
	if err != nil {
		t.Fatalf("coordinator snapshot: %v", err)
	}
	for gen := 1; gen <= 2; gen++ {
		seqs := make([]uint64, workers)
		for w := range seqs {
			seqs[w] = uint64(gen)
		}
		m := &Manifest{
			Query:      base.Add(time.Duration(gen) * 40 * time.Minute),
			Workers:    workers,
			WorkerSeqs: seqs,
			System:     snap,
			Slides:     gen * 4,
		}
		if err := store.Save(m); err != nil {
			t.Fatalf("manifest gen %d: %v", gen, err)
		}
	}
	return store, dirs
}

// corrupt truncates the tail off a durable file so its CRC fails.
func corrupt(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	if err := os.Truncate(path, info.Size()-4); err != nil {
		t.Fatalf("truncate %s: %v", path, err)
	}
}

func TestRestoreClusterPicksNewestGeneration(t *testing.T) {
	store, dirs := seedGenerations(t, 3)
	m, err := RestoreCluster(store, dirs)
	if err != nil {
		t.Fatalf("RestoreCluster: %v", err)
	}
	if m == nil || m.Slides != 8 {
		t.Fatalf("want generation 2 (8 slides), got %+v", m)
	}
}

// A corrupt newest manifest falls back to the previous generation.
func TestRestoreClusterFallsBackPastCorruptManifest(t *testing.T) {
	store, dirs := seedGenerations(t, 3)
	if store.Seq() != 2 {
		t.Fatalf("want 2 manifests, got %d", store.Seq())
	}
	corrupt(t, store.store.Path(2))
	m, err := RestoreCluster(store, dirs)
	if m == nil || m.Slides != 4 {
		t.Fatalf("want fallback to generation 1 (4 slides), got %+v (err=%v)", m, err)
	}
	if err == nil {
		t.Error("the rejected newest manifest should surface in the joined error")
	}
}

// One unreadable worker checkpoint disqualifies the WHOLE generation:
// the cluster never restores a mixed cut where one worker is on an
// older generation than the rest.
func TestRestoreClusterNeverMixesGenerations(t *testing.T) {
	store, dirs := seedGenerations(t, 3)
	corrupt(t, checkpoint.PathFor(dirs[1], 2))
	m, err := RestoreCluster(store, dirs)
	if m == nil || m.Slides != 4 {
		t.Fatalf("want whole-generation fallback to generation 1, got %+v (err=%v)", m, err)
	}
	for w, seq := range m.WorkerSeqs {
		if seq != 1 {
			t.Errorf("worker %d pinned to seq %d; a coherent fallback pins every worker to 1", w, seq)
		}
		if _, err := checkpoint.Load(checkpoint.PathFor(dirs[w], seq)); err != nil {
			t.Errorf("worker %d's pinned checkpoint does not load: %v", w, err)
		}
	}
}

// Every generation unreadable: no manifest, and the reasons surface.
func TestRestoreClusterAllGenerationsBroken(t *testing.T) {
	store, dirs := seedGenerations(t, 3)
	corrupt(t, checkpoint.PathFor(dirs[0], 2))
	corrupt(t, checkpoint.PathFor(dirs[2], 1))
	m, err := RestoreCluster(store, dirs)
	if m != nil {
		t.Fatalf("restored %+v from a fully broken store", m)
	}
	if err == nil {
		t.Fatal("want the joined rejection reasons, got nil")
	}
}

// An empty manifest directory is a cold start, not an error.
func TestRestoreClusterColdStart(t *testing.T) {
	store, err := NewManifestStore(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("manifest store: %v", err)
	}
	m, err := RestoreCluster(store, []string{t.TempDir(), t.TempDir()})
	if m != nil || err != nil {
		t.Fatalf("cold start: want nil/nil, got %+v / %v", m, err)
	}
}

// A manifest written for a different cluster width never restores.
func TestRestoreClusterRejectsWidthMismatch(t *testing.T) {
	store, dirs := seedGenerations(t, 3)
	wrong := append(dirs, t.TempDir())
	m, err := RestoreCluster(store, wrong)
	if m != nil {
		t.Fatalf("restored a 3-worker manifest into a %d-worker cluster", len(wrong))
	}
	if err == nil {
		t.Fatal("want width-mismatch rejections, got nil")
	}
}

// A transient write failure (the ENOSPC/EIO stand-in) is retried, so
// the manifest generation still lands on disk and restores.
func TestManifestSaveRetriesTransientWriteFailure(t *testing.T) {
	store, dirs := seedGenerations(t, 2)
	attempts := 0
	store.store.RetryBackoff = time.Millisecond
	store.store.WrapWriter = func(w io.Writer) io.Writer {
		attempts++
		if attempts == 1 {
			return faults.NewCrashWriter(w, 10)
		}
		return w
	}
	m := &Manifest{Query: time.Date(2009, 6, 1, 2, 0, 0, 0, time.UTC), Workers: 2, WorkerSeqs: []uint64{2, 2}, System: core.Snapshot{Store: []byte{0}}, Slides: 12}
	if err := store.Save(m); err != nil {
		t.Fatalf("Save with one transient failure: %v", err)
	}
	if _, err := LoadManifest(store.store.Path(3)); err != nil {
		t.Fatalf("manifest-…3.mft does not load: %v", err)
	}
	got, err := RestoreCluster(store, dirs)
	if err != nil || got == nil || got.Slides != 12 {
		t.Fatalf("RestoreCluster = (%+v, %v), want the retried generation (12 slides)", got, err)
	}
	if st := store.Stats(); st.Retries != 1 || st.Failures != 0 {
		t.Errorf("Stats = %+v, want 1 retry and no failure", st)
	}
}

// legacyManifest is the manifest layout from before the coordinator ran
// a core.System: the recognizer's working memory and the analytics
// tier's state in fields of their own, no system snapshot.
type legacyManifest struct {
	Query      time.Time
	Workers    int
	WorkerSeqs []uint64
	Cursor     feed.Cursor
	Recognizer maritime.RecognizerSnapshot
	Hub        *serve.HubSnapshot
	Slides     int
	Analytics  *analytics.Snapshot
}

// writeV1Manifest writes v as manifest seq of store, framed at format
// version 1.
func writeV1Manifest(t *testing.T, store *ManifestStore, seq uint64, v any) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatal(err)
	}
	err := durable.WriteFileAtomic(store.store.Path(seq), func(w io.Writer) error {
		return durable.WriteFrame(w, manifestSpec.Magic, 1, payload.Bytes())
	})
	if err != nil {
		t.Fatalf("writing the version-1 manifest: %v", err)
	}
}

// A version-1 manifest in the older layout is refused at load, and
// skipped by RestoreCluster with the reason and counted as rejected —
// restoring it would resume recognition from an empty working memory
// mid-stream. Behind it the newest current generation restores; alone,
// it is a cold start.
func TestRestoreClusterSkipsManifestWithoutSystemSnapshot(t *testing.T) {
	store, dirs := seedGenerations(t, 3)
	legacy := legacyManifest{
		Query:      time.Date(2009, 6, 1, 2, 0, 0, 0, time.UTC),
		Workers:    3,
		WorkerSeqs: []uint64{2, 2, 2},
		Hub:        &serve.HubSnapshot{Seq: 40},
		Slides:     12,
		Analytics:  &analytics.Snapshot{},
	}
	writeV1Manifest(t, store, 3, legacy)
	if _, err := LoadManifest(store.store.Path(3)); !errors.Is(err, errNoSystemSnapshot) {
		t.Fatalf("LoadManifest of the older-layout manifest: err=%v, want %v", err, errNoSystemSnapshot)
	}

	m, err := RestoreCluster(store, dirs)
	if m == nil || m.Slides != 8 {
		t.Fatalf("want the newest current generation (8 slides), got %+v (err=%v)", m, err)
	}
	if !errors.Is(err, errNoSystemSnapshot) {
		t.Errorf("skip reason %v, want %v", err, errNoSystemSnapshot)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{Workers: 3, System: coordinatorSystem(), Manifests: store})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	coord.RegisterMetrics(reg)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "maritime_cluster_manifest_rejected_total 1\n") {
		t.Errorf("the skipped manifest is not counted:\n%s", text.String())
	}

	alone, err := NewManifestStore(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("manifest store: %v", err)
	}
	writeV1Manifest(t, alone, 1, legacy)
	if m, err := RestoreCluster(alone, dirs); m != nil || !errors.Is(err, errNoSystemSnapshot) {
		t.Errorf("older-layout manifest alone: got %+v / %v, want a cold start with the skip reason", m, err)
	}
}
