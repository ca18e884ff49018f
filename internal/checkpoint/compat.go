package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/maritime"
)

// Version 1 of the checkpoint (MARCKPT) and manifest (MARMANI) formats
// held fields the live snapshot types no longer have: a list of
// recognizer states in core.Snapshot, a collision section in
// analytics.Snapshot (the only place the earliest builds kept vessel
// headings), and a copy of each tracked vessel's last time, which needs
// no move. A version-1 payload is decoded twice: once into the current
// types, where gob matches fields by name and skips the ones that are
// gone, and once into the overlays below, which hold only the fields
// to move. SystemV1.Upgrade moves them.

// stateV1 overlays a version-1 State. gob refuses a top-level overlay
// that shares no field with the encoded type; System is in every
// layout. A nested overlay that matches nothing is left zero.
type stateV1 struct {
	System SystemV1
}

// upgradeV1 upgrades sys, a version-1 State payload decoded into the
// current types, from the same payload decoded into the overlay.
func upgradeV1(payload []byte, sys *core.Snapshot) error {
	var v1 stateV1
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v1); err != nil {
		return fmt.Errorf("decoding version 1: %w", err)
	}
	return v1.System.Upgrade(sys)
}

// SystemV1 overlays a version-1 core.Snapshot; the cluster's version-1
// manifests carry one too.
type SystemV1 struct {
	Recognizers []maritime.RecognizerSnapshot
	Analytics   *AnalyticsV1
}

// AnalyticsV1 overlays a version-1 analytics.Snapshot.
type AnalyticsV1 struct {
	Collision *collisionV1
}

type collisionV1 struct{ Vessels []kinematicsV1 }

type kinematicsV1 struct {
	MMSI uint32
	Vel  geo.Velocity
}

// Upgrade moves the version-1 fields into s, the same snapshot decoded
// into the current types. The one recognizer state becomes
// s.Recognizer; two or more (a longitude-band split that no system
// runs) fail with core.ErrTopologyMismatch. The collision section's
// headings go into s.Analytics.Vessels; a vessel it leaves out had been
// silent longer than the screen's staleness bound, so its heading stays
// zero until its next point sets it.
func (v1 SystemV1) Upgrade(s *core.Snapshot) error {
	switch n := len(v1.Recognizers); {
	case n > 1:
		return fmt.Errorf("%w: version-1 snapshot has %d recognizer states", core.ErrTopologyMismatch, n)
	case n == 1:
		s.Recognizer = &v1.Recognizers[0]
	}
	if v1.Analytics == nil || v1.Analytics.Collision == nil || s.Analytics == nil {
		return nil
	}
	headings := make(map[uint32]float64, len(v1.Analytics.Collision.Vessels))
	for _, k := range v1.Analytics.Collision.Vessels {
		headings[k.MMSI] = k.Vel.HeadingDeg
	}
	for i, v := range s.Analytics.Vessels {
		if h, ok := headings[v.MMSI]; ok {
			s.Analytics.Vessels[i].HeadingDeg = h
		}
	}
	return nil
}
