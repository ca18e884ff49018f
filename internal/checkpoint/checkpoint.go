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
// truncated, corrupt, or future-version file — every rejection is a
// typed durable error, never a panic or a half-restored pipeline.
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

// fileSpec names checkpoint files: checkpoint-<seq>.ckpt, one durable
// frame of gob(State) each. Version 1 is read through compat.go.
var fileSpec = durable.FileSpec{Prefix: "checkpoint-", Suffix: ".ckpt", Magic: "MARCKPT", Version: 2}

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
}

// Options configures a Manager: the directory, keep-last-K retention,
// the crash-injection hook and the transient-write retry policy.
type Options = durable.StoreOptions

// Manager owns one checkpoint directory: periodic saves with pruning,
// and newest-valid restore with fallback. It is the gob-typed face of a
// durable.Store.
type Manager struct {
	store *durable.Store

	metrics *managerMetrics
}

// NewManager opens (creating if needed) the checkpoint directory and
// positions the sequence counter after the newest existing checkpoint.
func NewManager(opt Options) (*Manager, error) {
	store, err := durable.OpenStore(fileSpec, opt)
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

// decode unpacks one checkpoint payload written at the given format
// version.
func decode(payload []byte, version uint16) (*State, error) {
	var st State
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding state: %w", err)
	}
	if version == 1 {
		if err := upgradeV1(payload, &st.System); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	return &st, nil
}

// Load reads and verifies one checkpoint file. Truncated, corrupt,
// wrong-magic, and future-version files fail with the corresponding
// typed durable error; a version-1 file whose recognizer state no
// system runs fails with core.ErrTopologyMismatch.
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
func (m *Manager) RestoreNewest() (*State, error) {
	var st *State
	_, err := m.store.Restore(func(_ uint64, payload []byte, version uint16) (err error) {
		st, err = decode(payload, version)
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
		r.CounterFunc(name, help, nil, func() float64 { return float64(get(m.store.Stats())) })
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
			last, _ := m.store.LastSave()
			if last.IsZero() {
				return 0
			}
			return time.Since(last).Seconds()
		})
}
