package mod

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/durable"
	"repro/internal/tracker"
)

// Durable state (paper §2: "'Delta' critical points ... are
// periodically sent from main memory into a staging area on disk" and
// trajectories are "physically archived in a database"). The store
// serializes its staging area, per-vessel origins, and archived trips
// so a surveillance process can restart without losing the trajectory
// history.
//
// On disk the snapshot is framed through internal/durable: a magic
// header, a format version, and a payload CRC, so restoring from a
// truncated, corrupted or future-format file fails with one of the
// typed durable errors (ErrBadMagic, ErrTruncated, ErrChecksum,
// ErrFutureVersion) instead of panicking or half-populating the store.

// snapshotMagic tags a MOD snapshot file; snapshotVersion is the
// current payload format revision (gob of the snapshot struct).
const (
	snapshotMagic   = "MODSNAP"
	snapshotVersion = 1
)

// snapshot is the serialized form of a store.
type snapshot struct {
	Staging map[uint32][]tracker.CriticalPoint
	Origin  map[uint32]string
	Trips   []Trip
}

// SaveSnapshot serializes the store.
func (m *MOD) SaveSnapshot(w io.Writer) error {
	snap := snapshot{
		Staging: make(map[uint32][]tracker.CriticalPoint, len(m.vessels)),
		Origin:  m.origin,
		Trips:   make([]Trip, len(m.trips)),
	}
	for i := range m.vessels {
		v := &m.vessels[i]
		snap.Staging[v.mmsi] = criticalPoints(v.mmsi, v.pts)
	}
	for i, t := range m.trips {
		snap.Trips[i] = *t
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&snap); err != nil {
		return fmt.Errorf("mod: encoding snapshot: %w", err)
	}
	if err := durable.WriteFrame(w, snapshotMagic, snapshotVersion, payload.Bytes()); err != nil {
		return fmt.Errorf("mod: writing snapshot frame: %w", err)
	}
	return nil
}

// RestoreSnapshot replaces the store's contents with a serialized
// snapshot. The port set is not serialized: it is configuration, and
// the restoring process supplies it to New.
//
// The frame is verified and the payload fully decoded into fresh state
// before the store is touched, so a failed restore (typed durable
// errors for a bad/truncated/corrupt/future-version file, or a gob
// decode failure) leaves the store exactly as it was.
func (m *MOD) RestoreSnapshot(r io.Reader) error {
	payload, _, err := durable.ReadFrame(r, snapshotMagic, snapshotVersion)
	if err != nil {
		return fmt.Errorf("mod: snapshot frame: %w", err)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return fmt.Errorf("mod: decoding snapshot: %w", err)
	}
	origin := snap.Origin
	if origin == nil {
		origin = make(map[uint32]string)
	}
	trips := make([]*Trip, 0, len(snap.Trips))
	byVessel := make(map[uint32][]*Trip)
	for i := range snap.Trips {
		t := snap.Trips[i]
		trips = append(trips, &t)
		byVessel[t.MMSI] = append(byVessel[t.MMSI], &t)
	}
	// The scan position is not serialized: the next Reconstruct visits
	// every staged vessel from its first point.
	m.index = make(map[uint32]int32, len(snap.Staging))
	m.vessels = make([]stagedVessel, 0, len(snap.Staging))
	m.dirty = make([]int32, 0, len(snap.Staging))
	m.staged = 0
	for mmsi, pts := range snap.Staging {
		v := stagedVessel{mmsi: mmsi, pts: make([]stagedPoint, len(pts))}
		for j := range pts {
			v.pts[j] = stagedOf(&pts[j])
		}
		m.index[mmsi] = int32(len(m.vessels))
		m.dirty = append(m.dirty, int32(len(m.vessels)))
		m.vessels = append(m.vessels, v)
		m.staged += len(pts)
	}
	m.pending = m.staged
	m.origin = origin
	m.trips = trips
	m.byVessel = byVessel
	return nil
}
