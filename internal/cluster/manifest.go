package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/feed"
	"repro/internal/serve"
)

// manifestSpec names manifest files: manifest-<seq>.mft, one durable
// frame of gob(Manifest) each.
// Version 1 is read through decodeManifest's upgrade.
var manifestSpec = durable.FileSpec{Prefix: "manifest-", Suffix: ".mft", Magic: "MARMANI", Version: 2}

// Manifest binds one atomic cluster snapshot: the checkpoint sequence
// number of every worker at a common query time, the merged resume
// cursor the router would honor, and the coordinator's own state (its
// system snapshot, alert hub sequence/history). Restoring
// every worker to its recorded sequence and the coordinator to the
// recorded snapshots puts the whole cluster on one coherent cut — no
// worker ahead of or behind the merge frontier.
type Manifest struct {
	// Query is the slide query time the cut was taken at; every worker
	// checkpointed at exactly this query.
	Query time.Time
	// Workers is the cluster width; WorkerSeqs[i] is worker i's
	// checkpoint sequence number.
	Workers    int
	WorkerSeqs []uint64
	// Cursor is the merged upstream resume cursor: Sec is the max of
	// the workers' cursor seconds, SeenAtSec the union of their
	// per-vessel counts at that second (vessel slices are disjoint).
	Cursor feed.Cursor
	// System is the coordinator system's snapshot as of Query — the
	// format serve and worker checkpoints carry: the recognizer's
	// working memory and the analytics tier's state.
	System core.Snapshot
	// Hub is the alert gateway's sequence/history; nil without one.
	Hub *serve.HubSnapshot
	// Slides is how many slides the coordinator had merged.
	Slides int
}

// ManifestStore owns one manifest directory: a manifest is a
// checkpoint whose payload names other checkpoints, so it is the same
// durable.Store as the checkpoint manager's — atomic framed saves with
// transient-write retry, keep-last-K pruning, and newest-valid restore
// with fallback.
type ManifestStore struct {
	store *durable.Store
}

// NewManifestStore opens (creating if needed) the manifest directory.
// keep ≤ 0 retains 3.
func NewManifestStore(dir string, keep int) (*ManifestStore, error) {
	store, err := durable.OpenStore(manifestSpec, durable.StoreOptions{Dir: dir, Keep: keep})
	if err != nil {
		return nil, fmt.Errorf("cluster: manifests: %w", err)
	}
	return &ManifestStore{store: store}, nil
}

// Save persists one manifest atomically and prunes beyond keep.
func (s *ManifestStore) Save(m *Manifest) error {
	if err := s.store.Save(func(w io.Writer) error { return gob.NewEncoder(w).Encode(m) }); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// LastSave returns when the newest manifest was written (zero before
// any save this session).
func (s *ManifestStore) LastSave() time.Time {
	last, _ := s.store.LastSave()
	return last
}

// Seq returns the newest manifest sequence (0 before any).
func (s *ManifestStore) Seq() uint64 { return s.store.Seq() }

// Stats returns the store's save/retry/failure and restore/rejection
// counters.
func (s *ManifestStore) Stats() durable.StoreStats { return s.store.Stats() }

// errNoSystemSnapshot rejects a version-1 manifest from before the
// coordinator ran a core.System: restoring it would start recognition
// from an empty working memory mid-stream.
var errNoSystemSnapshot = errors.New("cluster: manifest predates the coordinator system snapshot")

// decodeManifest decodes a manifest payload written at the given
// format version. A version-1 payload is decoded a second time into an
// overlay of the fields version 2 reshaped, and upgraded from it.
func decodeManifest(payload []byte, version uint16) (*Manifest, error) {
	var m Manifest
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("cluster: decoding manifest: %w", err)
	}
	if version == 1 {
		// Slides is in every layout: gob refuses an overlay that shares
		// no field with the encoded type.
		var v1 struct {
			Slides int
			System *checkpoint.SystemV1
		}
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v1); err != nil {
			return nil, fmt.Errorf("cluster: decoding version-1 manifest: %w", err)
		}
		if v1.System == nil {
			return nil, errNoSystemSnapshot
		}
		if err := v1.System.Upgrade(&m.System); err != nil {
			return nil, fmt.Errorf("cluster: upgrading version-1 manifest: %w", err)
		}
	}
	return &m, nil
}

// LoadManifest reads and verifies one manifest file; truncated,
// corrupt, wrong-magic and future-version files fail with the
// corresponding typed durable error, and a version-1 manifest without a
// coordinator system snapshot fails too.
func LoadManifest(path string) (*Manifest, error) {
	payload, version, err := manifestSpec.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return decodeManifest(payload, version)
}

// RestoreCluster finds the newest manifest whose entire generation is
// restorable: the manifest itself loads (a version-1 one only if it
// carries a coordinator system snapshot), it matches the cluster width,
// and EVERY worker's recorded checkpoint sequence loads from that
// worker's directory. A generation with any unreadable member is
// skipped whole — the cluster never restores a mixed cut where one
// worker is on a different generation than the rest. Returns nil with
// a nil error when the directory holds no manifests at all (cold
// start); when every candidate was rejected, the joined rejection
// reasons come back with the nil manifest.
func RestoreCluster(s *ManifestStore, workerDirs []string) (*Manifest, error) {
	var out *Manifest
	_, err := s.store.Restore(func(_ uint64, payload []byte, version uint16) error {
		m, err := decodeManifest(payload, version)
		if err != nil {
			return err
		}
		if m.Workers != len(workerDirs) || len(m.WorkerSeqs) != m.Workers {
			return fmt.Errorf("cluster: manifest for %d workers, cluster has %d", m.Workers, len(workerDirs))
		}
		for w, seq := range m.WorkerSeqs {
			if _, err := checkpoint.Load(checkpoint.PathFor(workerDirs[w], seq)); err != nil {
				return fmt.Errorf("cluster: generation %d: worker %d: %w", m.Slides, w, err)
			}
		}
		out = m
		return nil
	})
	return out, err
}

// mergeCursors folds per-worker checkpoint cursors into the cluster
// cursor: the frontier second is the max across workers, and the
// per-vessel same-second counts are the union of the workers at that
// second — vessel slices are disjoint, so the union is a disjoint
// merge.
func mergeCursors(curs []*feed.Cursor) feed.Cursor {
	var out feed.Cursor
	for _, c := range curs {
		if c != nil && c.Sec > out.Sec {
			out.Sec = c.Sec
		}
	}
	for _, c := range curs {
		if c == nil || c.Sec != out.Sec {
			continue
		}
		for mmsi, n := range c.SeenAtSec {
			if out.SeenAtSec == nil {
				out.SeenAtSec = make(map[uint32]int)
			}
			out.SeenAtSec[mmsi] += n
		}
	}
	return out
}
