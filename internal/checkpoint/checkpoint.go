// Package checkpoint persists the full pipeline state — tracker
// vessels, the recognizer's working memory, the moving-object store, the
// alert hub's sequence/history, and the feed resume cursor — so a
// surveillance process killed at any instant restarts with no
// observable difference in its output stream.
//
// Each checkpoint is one file of a durable.Store: a durable frame
// (magic, version, CRC) around a gob-encoded State, written atomically
// (temp file, fsync, rename, directory fsync) so a crash mid-write
// leaves the previous checkpoint untouched. The store keeps the last K
// checkpoints; restore walks them newest-first and falls back past any
// truncated, corrupt, future-version or retired-version file — every
// rejection is a typed error, never a panic or a half-restored
// pipeline. A cluster manifest is the same State in a directory of its
// own (NewManifestManager), with the worker cut filled in.
//
// The restore → replay contract: State.Cursor covers exactly the fixes
// the pipeline had processed when the checkpoint was taken. On restart
// the driver restores the newest valid State into an identically
// configured system, then re-attaches to the feed with the cursor
// (feed.DialReconnectingFrom live, feed.ResumeFilter offline); the
// RESUME handshake plus per-vessel same-second dedupe discard
// everything already processed, so each fix is applied exactly once
// across the crash. Run is that lifecycle, shared by every driver.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/feed"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fileSpec names checkpoint files: checkpoint-<seq>.ckpt, and
// manifestSpec cluster manifests: manifest-<seq>.mft. Each file is one
// durable frame of gob(State). Version 3 added the worker cut; a
// version-2 payload decodes into it by field name, the cut left zero.
var (
	fileSpec     = durable.FileSpec{Prefix: "checkpoint-", Suffix: ".ckpt", Magic: "MARCKPT", Version: 3}
	manifestSpec = durable.FileSpec{Prefix: "manifest-", Suffix: ".mft", Magic: "MARMANI", Version: 3}
)

// oldestVersion is the oldest format version this binary reads: its
// own and the one before.
const oldestVersion = 2

// ErrRetiredVersion rejects a file written at a format version older
// than the one before this binary's own. Such a payload is never
// decoded: gob would match its fields by name into the current types
// and restore whatever happened to line up.
var ErrRetiredVersion = errors.New("checkpoint: retired format version")

// State is everything a restart needs, captured atomically between two
// window slides.
type State struct {
	// Query is the query time of the last slide folded into this
	// checkpoint; the resumed batcher continues the slide grid from it.
	Query time.Time
	// System is the pipeline's dynamic state: tracker, recognizer,
	// moving-object store and analytics tier.
	System core.Snapshot
	// Cursor covers exactly the fixes processed up to Query.
	Cursor feed.Cursor
	// Hub is the alert gateway's sequence/history state; nil for drivers
	// without a gateway.
	Hub *serve.HubSnapshot
	// Slides is how many slides the pipeline had processed.
	Slides int
	// Workers and WorkerSeqs are a cluster manifest's worker cut: the
	// cluster width, and worker i's checkpoint sequence at Query.
	// Restoring every worker to its sequence and the coordinator to this
	// State puts the whole cluster on one coherent cut. Zero in a
	// single-process checkpoint.
	Workers    int
	WorkerSeqs []uint64
}

// Options configures a Manager: the directory, keep-last-K retention,
// the crash-injection hook and the transient-write retry policy.
type Options = durable.StoreOptions

// Manager owns one checkpoint or manifest directory: periodic saves
// with pruning, and newest-valid restore with fallback. It is the
// gob-typed face of a durable.Store.
type Manager struct {
	store *durable.Store

	metrics *managerMetrics
}

// NewManager opens (creating if needed) the checkpoint directory and
// positions the sequence counter after the newest existing checkpoint.
func NewManager(opt Options) (*Manager, error) { return openManager(fileSpec, opt) }

// NewManifestManager opens a cluster manifest directory the same way.
func NewManifestManager(opt Options) (*Manager, error) { return openManager(manifestSpec, opt) }

func openManager(spec durable.FileSpec, opt Options) (*Manager, error) {
	store, err := durable.OpenStore(spec, opt)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Manager{store: store}, nil
}

// Save persists one checkpoint atomically and prunes beyond Keep. On
// any failure — including an injected mid-write crash — the directory
// still holds the previous checkpoints, untouched.
func (m *Manager) Save(st *State) error {
	start := time.Now()
	err := m.store.Save(func(w io.Writer) error { return gob.NewEncoder(w).Encode(st) })
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if m.metrics != nil {
		m.metrics.saveDur.ObserveDuration(time.Since(start))
	}
	return nil
}

// decode unpacks one payload written at the given format version.
func decode(payload []byte, version uint16) (*State, error) {
	if version < oldestVersion {
		return nil, fmt.Errorf("%w: version %d, this binary reads %d and %d",
			ErrRetiredVersion, version, oldestVersion, fileSpec.Version)
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding state: %w", err)
	}
	return &st, nil
}

// Load reads and verifies one checkpoint file. Truncated, corrupt,
// wrong-magic and future-version files fail with the corresponding
// typed durable error, and a retired-version file with
// ErrRetiredVersion.
func Load(path string) (*State, error) {
	payload, version, err := fileSpec.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return decode(payload, version)
}

// RestoreNewest loads the newest valid checkpoint, walking past
// invalid ones (each failure is joined into err so the caller can log
// what was skipped). A nil State means cold start: no checkpoint could
// be restored — err is nil when the directory held none at all, and
// carries the rejection reasons when every candidate was invalid.
func (m *Manager) RestoreNewest() (*State, error) { return m.RestoreNewestWhere(nil) }

// RestoreNewestWhere is RestoreNewest with a refusal hook: refuse, when
// not nil, is asked about every candidate that decodes, newest first,
// and one it returns an error for is skipped like an invalid file —
// counted rejected, its reason joined into err.
func (m *Manager) RestoreNewestWhere(refuse func(*State) error) (*State, error) {
	var st *State
	_, err := m.store.Restore(func(_ uint64, payload []byte, version uint16) error {
		cand, err := decode(payload, version)
		if err == nil && refuse != nil {
			err = refuse(cand)
		}
		if err == nil {
			st = cand
		}
		return err
	})
	return st, err
}

// PathFor returns the canonical path of checkpoint sequence seq inside
// dir. A cluster manifest references worker checkpoints by sequence
// number; the coordinator resolves them through this.
func PathFor(dir string, seq uint64) string {
	return filepath.Join(dir, fileSpec.Name(seq))
}

// LoadAt loads the checkpoint with exactly the given sequence number —
// not the newest. A cluster restore pins every worker to the sequence
// its manifest generation recorded, so the whole cluster restores one
// coherent cut even when some workers have newer checkpoints.
func (m *Manager) LoadAt(seq uint64) (*State, error) {
	payload, version, err := m.store.Load(seq)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return decode(payload, version)
}

// Dir returns the checkpoint directory.
func (m *Manager) Dir() string { return m.store.Dir }

// LastSeq returns the sequence number of the newest saved checkpoint
// (0 before any save).
func (m *Manager) LastSeq() uint64 { return m.store.Seq() }

// LastSave returns when the newest checkpoint was written (zero before
// any save this session).
func (m *Manager) LastSave() time.Time {
	last, _ := m.store.LastSave()
	return last
}

// Stats returns the store's save/retry/failure and restore/rejection
// counters.
func (m *Manager) Stats() durable.StoreStats { return m.store.Stats() }

// NoteReplaySkipped feeds the replay-dedupe counter: how many
// already-processed fixes the resume path discarded after a restore.
func (m *Manager) NoteReplaySkipped(n int) {
	if m.metrics != nil && n > 0 {
		m.metrics.replaySkipped.Add(uint64(n))
	}
}

// ReplayGapSlides reports how many window slides separate a restored
// checkpoint from the first traffic the feed could actually replay. A
// checkpoint older than the feed's replayable horizon resumes with a
// partial replay; the driver folds the result into core.Health so the
// gap is reported instead of silently closed. checkpointQuery is the
// restored State.Query, firstQuery the query time of the first
// non-empty batch after resume. Zero means the replay was complete.
func ReplayGapSlides(checkpointQuery, firstQuery time.Time, slide time.Duration) int {
	if slide <= 0 || firstQuery.IsZero() {
		return 0
	}
	gap := int(firstQuery.Sub(checkpointQuery)/slide) - 1
	if gap < 0 {
		return 0
	}
	return gap
}

// managerMetrics is the checkpoint observability wiring the store's
// own counters do not cover.
type managerMetrics struct {
	saveDur       *obs.Histogram
	replaySkipped *obs.Counter
}

// RegisterMetrics exposes the checkpoint lifecycle on the registry:
// save cost and cadence, the size and age of the newest checkpoint,
// restores, rejected (corrupt/stale) files, and the fixes skipped as
// already-processed during post-restore replay.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	m.metrics = &managerMetrics{
		saveDur: r.Histogram("maritime_checkpoint_seconds",
			"Time to serialize and atomically persist one pipeline checkpoint.", nil, nil),
		replaySkipped: r.Counter("maritime_checkpoint_replay_skipped_total",
			"Already-processed fixes discarded during post-restore replay.", nil),
	}
	counter := func(name, help string, get func(durable.StoreStats) uint64) {
		r.CounterFunc(name, help, nil, func() float64 { return float64(get(m.Stats())) })
	}
	counter("maritime_checkpoint_saves_total",
		"Checkpoints successfully written.",
		func(s durable.StoreStats) uint64 { return s.Saves })
	counter("maritime_checkpoint_failures_total",
		"Checkpoint saves that failed after exhausting their retries (the previous checkpoint survives).",
		func(s durable.StoreStats) uint64 { return s.Failures })
	counter("maritime_checkpoint_retries_total",
		"Write attempts retried after a transient failure (ENOSPC, EIO); not counted as failures when a retry succeeds.",
		func(s durable.StoreStats) uint64 { return s.Retries })
	counter("maritime_checkpoint_restores_total",
		"Successful restores from a checkpoint, at startup or on a rewind after a fault.",
		func(s durable.StoreStats) uint64 { return s.Restores })
	counter("maritime_checkpoint_rejected_total",
		"Checkpoint files rejected at restore (truncated, corrupt, or future-version).",
		func(s durable.StoreStats) uint64 { return s.Rejected })
	r.GaugeFunc("maritime_checkpoint_size_bytes",
		"Payload size of the newest checkpoint.", nil,
		func() float64 {
			_, size := m.store.LastSave()
			return float64(size)
		})
	r.GaugeFunc("maritime_checkpoint_age_seconds",
		"Age of the newest checkpoint; rises between saves.", nil,
		func() float64 {
			last := m.LastSave()
			if last.IsZero() {
				return 0
			}
			return time.Since(last).Seconds()
		})
}
