package analytics

import (
	"slices"
	"time"

	"repro/internal/geo"
)

// VesselSnap is one vessel's analytics state in serializable form.
type VesselSnap struct {
	MMSI       uint32
	Pos        geo.Point
	At         time.Time
	SpeedKn    float64
	HeadingDeg float64
	Slow, Dark bool
	GapStart   geo.Point
	GapStartAt time.Time
}

// PairSnap is one rendezvous streak.
type PairSnap struct {
	A, B    uint32
	Streak  int
	Emitted bool
}

// Snapshot captures the tier for checkpointing. All slices are sorted
// (or in deterministic insertion order, for gaps), so encoding is
// reproducible.
type Snapshot struct {
	Vessels    []VesselSnap
	Pairs      []PairSnap
	Gaps       []gapRec
	CollActive [][2]uint32
	Evicted    int64
	PairAlerts int64
}

// Snapshot serializes the tier state.
func (t *Tier) Snapshot() *Snapshot {
	s := &Snapshot{
		Vessels:    make([]VesselSnap, 0, len(t.vstates)),
		Pairs:      make([]PairSnap, 0, len(t.pairs)),
		Gaps:       slices.Clone(t.closedGaps),
		Evicted:    t.evicted,
		PairAlerts: t.pairAlerts,
	}
	for mmsi, v := range t.vstates {
		s.Vessels = append(s.Vessels, VesselSnap{
			MMSI: mmsi, Pos: v.pos, At: v.at,
			SpeedKn: v.speedKn, HeadingDeg: v.headingDeg,
			Slow: v.slow, Dark: v.dark,
			GapStart: v.gapStart, GapStartAt: v.gapStartAt,
		})
	}
	slices.SortFunc(s.Vessels, func(a, b VesselSnap) int {
		if a.MMSI < b.MMSI {
			return -1
		}
		if a.MMSI > b.MMSI {
			return 1
		}
		return 0
	})
	for k, ps := range t.pairs {
		s.Pairs = append(s.Pairs, PairSnap{A: k.a, B: k.b, Streak: ps.streak, Emitted: ps.emitted})
	}
	slices.SortFunc(s.Pairs, func(x, y PairSnap) int {
		return comparePairKeys(pairKey{x.A, x.B}, pairKey{y.A, y.B})
	})
	for k := range t.collActive {
		s.CollActive = append(s.CollActive, [2]uint32{k.a, k.b})
	}
	slices.SortFunc(s.CollActive, func(x, y [2]uint32) int {
		return comparePairKeys(pairKey{x[0], x[1]}, pairKey{y[0], y[1]})
	})
	return s
}

// Restore replaces the tier state with a snapshot's. A nil snapshot
// resets the tier to empty: the checkpoint was taken with the tier off.
func (t *Tier) Restore(s *Snapshot) {
	t.vstates = make(map[uint32]*vstate)
	t.pairs = make(map[pairKey]*pairState)
	t.collActive = make(map[pairKey]bool)
	t.closedGaps = nil
	t.evicted = 0
	t.pairAlerts = 0
	if s == nil {
		t.publishStats()
		return
	}
	for _, v := range s.Vessels {
		t.vstates[v.MMSI] = &vstate{
			pos: v.Pos, at: v.At,
			speedKn: v.SpeedKn, headingDeg: v.HeadingDeg,
			slow: v.Slow, dark: v.Dark,
			gapStart: v.GapStart, gapStartAt: v.GapStartAt,
		}
	}
	for _, p := range s.Pairs {
		t.pairs[pairKey{p.A, p.B}] = &pairState{streak: p.Streak, emitted: p.Emitted}
	}
	for _, k := range s.CollActive {
		t.collActive[pairKey{k[0], k[1]}] = true
	}
	t.closedGaps = slices.Clone(s.Gaps)
	t.evicted = s.Evicted
	t.pairAlerts = s.PairAlerts
	t.publishStats()
}

// publishStats refreshes the atomic mirrors after a restore.
func (t *Tier) publishStats() {
	t.atomVessels.Store(int64(len(t.vstates)))
	t.atomEvicted.Store(t.evicted)
	t.atomPairAlerts.Store(t.pairAlerts)
}
