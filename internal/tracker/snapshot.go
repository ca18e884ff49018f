package tracker

import (
	"fmt"
	"slices"
	"time"

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
	LastSeen time.Time
}

// Snapshot is the serialized state of the whole tracking tier: every
// vessel, MMSI-sorted, plus the merged counters.
type Snapshot struct {
	Vessels []VesselSnapshot
	Stats   Stats
}

// snapshotVessel captures one vessel's state, converting the in-memory
// layout (nanosecond clocks, runFix members) to the stable wire format
// of ais.Fix values. Slices
// are copied so the snapshot stays valid while the tracker keeps
// sliding.
func snapshotVessel(mmsi uint32, st *vesselState) VesselSnapshot {
	vs := VesselSnapshot{
		MMSI:        mmsi,
		HaveLast:    st.haveLast,
		VPrev:       st.vPrev,
		HaveV:       st.haveV,
		OutlierRun:  st.outlierRun,
		GapOpen:     st.gapOpen,
		Stopped:     st.stopped,
		Slow:        st.slow,
		RecentTurns: slices.Clone(st.recentTurns),
		OdometerM:   st.odometerM,
		DepartureM:  st.departureM,
	}
	if st.haveLast {
		vs.Last = ais.Fix{MMSI: mmsi, Pos: st.lastPos, Time: nsTime(st.lastTNS)}
	}
	if st.haveSeen {
		vs.LastSeen = nsTime(st.lastSeenNS)
	}
	if len(st.recent) > 0 {
		vs.Recent = make([]geo.Velocity, len(st.recent))
		for i := range st.recent {
			vs.Recent[i] = st.recent[i].v
		}
	}
	vs.StopRun = runToFixes(mmsi, st.stopRun)
	vs.SlowRun = runToFixes(mmsi, st.slowRun)
	if n := st.synopsis.Len(); n > 0 {
		vs.Synopsis = st.synopsis.AppendValues(make([]CriticalPoint, 0, n))
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

// fixesToRun converts wire-form run members to the in-memory layout.
func fixesToRun(fs []ais.Fix) []runFix {
	if len(fs) == 0 {
		return nil
	}
	out := make([]runFix, len(fs))
	for i, f := range fs {
		out[i] = runFix{pos: f.Pos, tns: f.Time.UnixNano()}
	}
	return out
}

// restoreVessel rebuilds the in-memory state from its snapshot. Derived
// caches — latitude trig, per-sample heading trig, stop-run aggregates —
// are recomputed with the same math calls ingest would have made, so the
// restored state is bit-identical to the live one it mirrors.
func restoreVessel(vs VesselSnapshot) *vesselState {
	st := &vesselState{
		vesselCore: vesselCore{
			mmsi:       vs.MMSI,
			haveLast:   vs.HaveLast,
			vPrev:      vs.VPrev,
			haveV:      vs.HaveV,
			outlierRun: vs.OutlierRun,
			gapOpen:    vs.GapOpen,
			stopped:    vs.Stopped,
			slow:       vs.Slow,
			odometerM:  vs.OdometerM,
			departureM: vs.DepartureM,
		},
		stopRun:     fixesToRun(vs.StopRun),
		slowRun:     fixesToRun(vs.SlowRun),
		recentTurns: slices.Clone(vs.RecentTurns),
	}
	if vs.HaveLast {
		st.lastPos = vs.Last.Pos
		st.lastTNS = vs.Last.Time.UnixNano()
		st.lastTrig = geo.LatTrigOf(vs.Last.Pos)
	}
	if !vs.LastSeen.IsZero() {
		st.lastSeenNS = vs.LastSeen.UnixNano()
		st.haveSeen = true
	}
	if len(vs.Recent) > 0 {
		st.recent = make([]velEntry, len(vs.Recent))
		for i, v := range vs.Recent {
			st.recent[i] = velEntry{v: v}
		}
	}
	st.rebuildStopAgg()
	for _, cp := range vs.Synopsis {
		st.synopsis.Append(cp.Time, cp)
	}
	return st
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
		for mmsi, st := range sh.vessels {
			snap.Vessels = append(snap.Vessels, snapshotVessel(mmsi, st))
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
// merged totals are). A slide in flight is finished first and its
// result discarded: it belongs to the state the restore replaces.
func (s *Sharded) RestoreSnapshot(snap Snapshot) error {
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
		sh.vessels = make(map[uint32]*vesselState)
		sh.stats = Stats{ByType: make(map[EventType]int)}
		sh.lastQueryNS, sh.haveLastQ = 0, false
	}
	for _, vs := range snap.Vessels {
		sh := s.shards[ShardOf(vs.MMSI, n)]
		if _, dup := sh.vessels[vs.MMSI]; dup {
			return fmt.Errorf("tracker: snapshot lists vessel %d twice", vs.MMSI)
		}
		sh.vessels[vs.MMSI] = restoreVessel(vs)
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
		s0.stats.ByType[k] = v
	}
	return nil
}
