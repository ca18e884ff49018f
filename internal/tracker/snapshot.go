package tracker

import (
	"fmt"
	"slices"

	"repro/internal/ais"
	"repro/internal/geo"
)

// Checkpoint support. The tracking tier serializes its full per-vessel
// motion state so a crashed surveillance process restores mid-window
// instead of rebuilding from a cold stream. The encoding is
// shard-count-independent: vessels are gathered across shards into one
// MMSI-sorted list, and restore re-routes each vessel by hash — a
// checkpoint taken with N shards restores into a tier with M.

// VesselSnapshot is the serialized motion state of one vessel: every
// field of the in-memory vesselState, with the window synopsis flattened
// to its critical points (entry timestamps equal cp.Time by
// construction, so they need no separate encoding).
type VesselSnapshot struct {
	MMSI     uint32
	Last     ais.Fix
	HaveLast bool

	VPrev  geo.Velocity
	HaveV  bool
	Recent []geo.Velocity

	OutlierRun int
	GapOpen    bool

	StopRun []ais.Fix
	Stopped bool

	SlowRun []ais.Fix
	Slow    bool

	RecentTurns []float64

	OdometerM  float64
	DepartureM float64

	Synopsis []CriticalPoint
}

// Snapshot is the serialized state of the whole tracking tier: every
// vessel, MMSI-sorted, plus the merged counters.
type Snapshot struct {
	Vessels []VesselSnapshot
	Stats   Stats
}

// snapshotVessel captures the vessel in slot, converting the in-memory
// layout (nanosecond clocks, runFix members, ring windows) to the stable
// wire format of ais.Fix values and oldest-first slices. Slices are
// copied so the snapshot stays valid while the tracker keeps sliding.
func (tr *shard) snapshotVessel(slot int32) VesselSnapshot {
	st := &tr.slots[slot]
	mmsi := st.mmsi
	vs := VesselSnapshot{
		MMSI:       mmsi,
		HaveLast:   st.haveLast,
		VPrev:      st.vPrev,
		HaveV:      st.haveV,
		OutlierRun: int(st.outlierRun),
		GapOpen:    st.gapOpen,
		Stopped:    st.stopped,
		Slow:       st.slow,
		OdometerM:  st.odometerM,
		DepartureM: st.departureM,
	}
	if st.haveLast {
		vs.Last = ais.Fix{MMSI: mmsi, Pos: st.lastPos, Time: nsTime(st.lastTNS)}
	}
	speeds, headings, turns := tr.vesselRings(slot)
	if st.velLen > 0 {
		vs.Recent = make([]geo.Velocity, st.velLen)
		for k, i := int32(0), st.velHead; k < st.velLen; k++ {
			vs.Recent[k] = geo.Velocity{SpeedKnots: speeds[i], HeadingDeg: headings[i]}
			if i++; i == int32(len(speeds)) {
				i = 0
			}
		}
	}
	if st.turnLen > 0 {
		ta, tb := ringSegments(turns, st.turnHead, st.turnLen)
		vs.RecentTurns = append(slices.Clone(ta), tb...)
	}
	vs.StopRun = runToFixes(mmsi, st.stopRun)
	vs.SlowRun = runToFixes(mmsi, st.slowRun)
	if n := st.synopsis.len(); n > 0 {
		vs.Synopsis = slices.Clone(st.synopsis.live())
	}
	return vs
}

// runToFixes converts a stop/slow run to the wire's row form.
func runToFixes(mmsi uint32, run []runFix) []ais.Fix {
	if len(run) == 0 {
		return nil
	}
	out := make([]ais.Fix, len(run))
	for i, f := range run {
		out[i] = ais.Fix{MMSI: mmsi, Pos: f.pos, Time: nsTime(f.tns)}
	}
	return out
}

// appendRun appends wire-form run members to dst in the in-memory
// layout.
func appendRun(dst []runFix, fs []ais.Fix) []runFix {
	for _, f := range fs {
		dst = append(dst, runFix{pos: f.Pos, tns: f.Time.UnixNano()})
	}
	return dst
}

// restoreVessel rebuilds a vessel's in-memory state from its snapshot,
// in a slot of its own. Derived caches — latitude trig, stop-run
// aggregates, the oldest synopsis time — are recomputed with the same
// math calls ingest would have made, so the restored state is
// bit-identical to the live one it mirrors. The turn window's running
// sums are the exception: rebuilt from the restored entries, they may
// differ in their low bits from the live ones, which accumulated over a
// longer history; both are within their error bound of the same exact
// fold, so every decision they settle is the same (see windowSum).
func (tr *shard) restoreVessel(vs VesselSnapshot) {
	slot := tr.admit(vs.MMSI)
	st := &tr.slots[slot]
	st.haveLast = vs.HaveLast
	st.vPrev = vs.VPrev
	st.haveV = vs.HaveV
	st.outlierRun = int32(vs.OutlierRun)
	st.gapOpen = vs.GapOpen
	st.stopped = vs.Stopped
	st.slow = vs.Slow
	st.odometerM = vs.OdometerM
	st.departureM = vs.DepartureM
	st.stopRun = appendRun(st.stopRun, vs.StopRun)
	st.slowRun = appendRun(st.slowRun, vs.SlowRun)
	if vs.HaveLast {
		st.lastPos = vs.Last.Pos
		st.lastTNS = vs.Last.Time.UnixNano()
		st.lastTrig = geo.LatTrigOf(vs.Last.Pos)
	}
	speeds, headings, turns := tr.vesselRings(slot)
	for _, v := range vs.Recent {
		i := ringNext(int32(len(speeds)), &st.velHead, &st.velLen)
		speeds[i], headings[i] = v.SpeedKnots, v.HeadingDeg
	}
	for _, d := range vs.RecentTurns {
		pushWindow(turns, &st.turnHead, &st.turnLen, &st.turnSum, d)
	}
	st.rebuildStopAgg()
	for i := range vs.Synopsis {
		st.addPoint(&vs.Synopsis[i])
	}
}

// Snapshot captures the tier's complete state, after finishing the
// slide in flight. Down shards are excluded: callers that need a
// complete snapshot must restore first (core.Snapshot refuses with
// ErrWedged until then).
func (s *Sharded) Snapshot() Snapshot {
	s.settle()
	defer s.mu.Unlock()
	var snap Snapshot
	for i, sh := range s.shards {
		if s.outOfService(i) {
			continue
		}
		for j := range sh.slots {
			if sh.slots[j].inUse {
				snap.Vessels = append(snap.Vessels, sh.snapshotVessel(int32(j)))
			}
		}
	}
	slices.SortFunc(snap.Vessels, func(a, b VesselSnapshot) int {
		switch {
		case a.MMSI < b.MMSI:
			return -1
		case a.MMSI > b.MMSI:
			return 1
		}
		return 0
	})
	snap.Stats = s.stats()
	return snap
}

// RestoreSnapshot replaces the tier's vessel state and counters with a
// snapshot's. Vessels are re-routed by hash, so the snapshot may come
// from a tier with a different shard count; the merged counters land on
// shard 0 (per-shard attribution is not preserved across a reshard, the
// merged totals are). The snapshot is checked whole before anything is
// touched: one that lists a vessel twice or counts an unknown event
// type is refused, and the tier — a slide in flight included — is left
// as it was. Otherwise a slide in flight is finished first and its
// result discarded: it belongs to the state the restore replaces.
func (s *Sharded) RestoreSnapshot(snap Snapshot) error {
	if err := snap.validate(); err != nil {
		return err
	}
	s.settle()
	defer s.mu.Unlock()
	s.take()
	n := len(s.shards)
	// Down shards may still be touched by a wedged goroutine: replace
	// them outright rather than mutating them, which also re-admits every
	// shard. Every shard forgets the last query it saw: the slides after
	// the snapshot's are new to it, not late.
	s.readmit()
	for _, sh := range s.shards {
		sh.index = make(map[uint32]int32)
		sh.slots, sh.free, sh.rings = nil, nil, nil
		sh.stats, sh.byType = Stats{}, [numEventTypes]int{}
		sh.lastQueryNS, sh.haveLastQ = 0, false
	}
	for _, vs := range snap.Vessels {
		s.shards[ShardOf(vs.MMSI, n)].restoreVessel(vs)
	}
	s0 := s.shards[0]
	s0.stats.FixesIn = snap.Stats.FixesIn
	s0.stats.Duplicates = snap.Stats.Duplicates
	s0.stats.Outliers = snap.Stats.Outliers
	s0.stats.Critical = snap.Stats.Critical
	s0.stats.LateAccepted = snap.Stats.LateAccepted
	s0.stats.LateDropped = snap.Stats.LateDropped
	s0.stats.Shed = snap.Stats.Shed
	for k, v := range snap.Stats.ByType {
		s0.byType[k] = v
	}
	return nil
}

// validate checks what a restore cannot take: a vessel listed twice, an
// event type out of range.
func (snap *Snapshot) validate() error {
	seen := make(map[uint32]struct{}, len(snap.Vessels))
	for _, vs := range snap.Vessels {
		if _, dup := seen[vs.MMSI]; dup {
			return fmt.Errorf("tracker: snapshot lists vessel %d twice", vs.MMSI)
		}
		seen[vs.MMSI] = struct{}{}
	}
	for k := range snap.Stats.ByType {
		if k < 0 || int(k) >= numEventTypes {
			return fmt.Errorf("tracker: snapshot counts unknown event type %d", int(k))
		}
	}
	return nil
}
