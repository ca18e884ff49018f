package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// manifestPath is the path of manifest seq in dir.
func manifestPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("manifest-%012d.mft", seq))
}

// seedGenerations writes two complete cluster generations — every
// worker checkpointed at seq 1 and 2, one manifest binding each — and
// returns the manifest store and worker directories.
func seedGenerations(t *testing.T, workers int) (*checkpoint.Manager, []string) {
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
	store, err := checkpoint.NewManifestManager(checkpoint.Options{Dir: t.TempDir()})
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
		m := &checkpoint.State{
			Query:      base.Add(time.Duration(gen) * 40 * time.Minute),
			System:     snap,
			Slides:     gen * 4,
			Workers:    workers,
			WorkerSeqs: seqs,
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
	if store.LastSeq() != 2 {
		t.Fatalf("want 2 manifests, got %d", store.LastSeq())
	}
	corrupt(t, manifestPath(store.Dir(), 2))
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
	store, err := checkpoint.NewManifestManager(checkpoint.Options{Dir: t.TempDir()})
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
	seeded, dirs := seedGenerations(t, 2)
	attempts := 0
	store, err := checkpoint.NewManifestManager(checkpoint.Options{
		Dir:          seeded.Dir(),
		RetryBackoff: time.Millisecond,
		WrapWriter: func(w io.Writer) io.Writer {
			attempts++
			if attempts == 1 {
				return faults.NewCrashWriter(w, 10)
			}
			return w
		},
	})
	if err != nil {
		t.Fatalf("manifest store: %v", err)
	}
	m := &checkpoint.State{Query: time.Date(2009, 6, 1, 2, 0, 0, 0, time.UTC), System: core.Snapshot{Store: []byte{0}}, Slides: 12, Workers: 2, WorkerSeqs: []uint64{2, 2}}
	if err := store.Save(m); err != nil {
		t.Fatalf("Save with one transient failure: %v", err)
	}
	if _, err := store.LoadAt(3); err != nil {
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
// tier's state in fields of their own, no system snapshot. Only
// version-1 manifests hold it.
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

// writeV1Manifest writes v as manifest seq in dir, framed at format
// version 1.
func writeV1Manifest(t *testing.T, dir string, seq uint64, v any) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatal(err)
	}
	err := durable.WriteFileAtomic(manifestPath(dir, seq), func(w io.Writer) error {
		return durable.WriteFrame(w, "MARMANI", 1, payload.Bytes())
	})
	if err != nil {
		t.Fatalf("writing the version-1 manifest: %v", err)
	}
}

// A version-1 manifest is refused with ErrRetiredVersion before its
// payload is decoded — in the oldest layout, which holds no system
// snapshot, and in the current one, which would decode field by field
// — and RestoreCluster skips it with the reason and counts it as
// rejected. Behind it the newest current generation restores; alone,
// it is a cold start.
func TestRestoreClusterSkipsVersion1Manifest(t *testing.T) {
	legacy := legacyManifest{
		Query:      time.Date(2009, 6, 1, 2, 0, 0, 0, time.UTC),
		Workers:    3,
		WorkerSeqs: []uint64{2, 2, 2},
		Hub:        &serve.HubSnapshot{Seq: 40},
		Slides:     12,
		Analytics:  &analytics.Snapshot{},
	}
	current := checkpoint.State{Query: legacy.Query, Slides: 12, Workers: 3, WorkerSeqs: legacy.WorkerSeqs}
	for _, tc := range []struct {
		name string
		v    any
	}{{"oldest layout", legacy}, {"current layout", current}} {
		t.Run(tc.name, func(t *testing.T) {
			store, dirs := seedGenerations(t, 3)
			writeV1Manifest(t, store.Dir(), 3, tc.v)
			if _, err := store.LoadAt(3); !errors.Is(err, checkpoint.ErrRetiredVersion) {
				t.Fatalf("LoadAt of the version-1 manifest: err=%v, want %v", err, checkpoint.ErrRetiredVersion)
			}

			m, err := RestoreCluster(store, dirs)
			if m == nil || m.Slides != 8 {
				t.Fatalf("want the newest current generation (8 slides), got %+v (err=%v)", m, err)
			}
			if !errors.Is(err, checkpoint.ErrRetiredVersion) {
				t.Errorf("skip reason %v, want %v", err, checkpoint.ErrRetiredVersion)
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

			alone, err := checkpoint.NewManifestManager(checkpoint.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("manifest store: %v", err)
			}
			writeV1Manifest(t, alone.Dir(), 1, tc.v)
			if m, err := RestoreCluster(alone, dirs); m != nil || !errors.Is(err, checkpoint.ErrRetiredVersion) {
				t.Errorf("version-1 manifest alone: got %+v / %v, want a cold start with the skip reason", m, err)
			}
		})
	}
}
