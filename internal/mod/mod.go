// Package mod is the repository's stand-in for Hermes MOD, the moving
// object database the paper archives trajectories in (§3.2–§3.3): an
// in-process store that accepts the "delta" critical points evicted
// from the sliding window into a staging area, periodically reconstructs
// them into disjoint trip segments between ports (with semantic
// enrichment: origin and destination port names), and answers offline
// queries — range, nearest neighbor, similarity — plus the aggregate
// analytics of the paper's Table 4.
package mod

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/tracker"
)

// PortArea is a named port polygon used for trip segmentation: a
// long-term stop inside the polygon tags the vessel as docked there.
type PortArea struct {
	Name string
	Poly *geo.Polygon
}

// Trip is one reconstructed trajectory segment between two port calls.
// Origin may be empty when the vessel was already under way when its
// signals first arrived (paper §3.2: "origin port O may remain
// unknown").
type Trip struct {
	MMSI   uint32
	Origin string // origin port name, possibly empty
	Dest   string // destination port name
	Points []tracker.CriticalPoint
	Start  time.Time
	End    time.Time
}

// Duration returns the trip travel time.
func (t *Trip) Duration() time.Duration { return t.End.Sub(t.Start) }

// DistanceMeters returns the length of the reconstructed path.
func (t *Trip) DistanceMeters() float64 {
	var d float64
	for i := 1; i < len(t.Points); i++ {
		d += geo.Haversine(t.Points[i-1].Pos, t.Points[i].Pos)
	}
	return d
}

// BBox returns the spatial extent of the trip.
func (t *Trip) BBox() geo.BBox {
	b := geo.BBox{
		MinLon: t.Points[0].Pos.Lon, MaxLon: t.Points[0].Pos.Lon,
		MinLat: t.Points[0].Pos.Lat, MaxLat: t.Points[0].Pos.Lat,
	}
	for _, cp := range t.Points[1:] {
		if cp.Pos.Lon < b.MinLon {
			b.MinLon = cp.Pos.Lon
		}
		if cp.Pos.Lon > b.MaxLon {
			b.MaxLon = cp.Pos.Lon
		}
		if cp.Pos.Lat < b.MinLat {
			b.MinLat = cp.Pos.Lat
		}
		if cp.Pos.Lat > b.MaxLat {
			b.MaxLat = cp.Pos.Lat
		}
	}
	return b
}

// String renders the trip for logs.
func (t *Trip) String() string {
	o := t.Origin
	if o == "" {
		o = "?"
	}
	return fmt.Sprintf("%d %s→%s %s..%s (%d pts)", t.MMSI, o, t.Dest,
		t.Start.UTC().Format("01-02 15:04"), t.End.UTC().Format("01-02 15:04"), len(t.Points))
}

// MOD is the moving-object store.
type MOD struct {
	ports []PortArea

	// The staging area (the paper's staging table) holds per-vessel delta
	// critical points not yet assigned to a completed trip, in time
	// order. index maps a vessel to its slot in vessels; a slot, once
	// given, is kept for the store's lifetime. A vessel's points only grow
	// by append or lose a prefix that moved into trips, the tail copied
	// down in place: no trip or snapshot aliases them. staged is their
	// running count.
	index   map[uint32]int32
	vessels []stagedVessel
	staged  int
	// dirty lists the slots that staged a StopStart or StopEnd since the
	// previous Reconstruct, each once: only such a point can close a
	// trip. It is derived state, not part of a snapshot.
	dirty []int32
	// origin tracks the port the vessel departed from, once known.
	origin map[uint32]string

	// pending counts the points staged since the previous Reconstruct;
	// scanned accumulates it over the store's lifetime.
	pending int
	scanned int

	// trips and byVessel only grow by append, and a loaded trip is never
	// modified.
	trips    []*Trip
	byVessel map[uint32][]*Trip
}

// stagedVessel is one vessel's slot in the staging area. from is the
// index in pts of the first stop staged since the previous Reconstruct,
// or -1: the points before it were already found not to close a trip.
type stagedVessel struct {
	mmsi uint32
	from int32
	pts  []stagedPoint
}

// stagedPoint is a critical point as the staging area holds it, in 64
// bytes against a CriticalPoint's 88: the time as Unix nanoseconds, so
// the record holds no pointer (the collector does not scan it, and a
// grown array is not zeroed before the copy), and no MMSI, which is its
// slot's. toPoint rebuilds the CriticalPoint exactly, as
// the tracker builds it (time.Unix(0, ns).UTC()).
type stagedPoint struct {
	Pos        geo.Point
	TNS        int64
	SpeedKn    float64
	HeadingDeg float64
	Duration   time.Duration
	Confidence float64
	Type       tracker.EventType
}

func stagedOf(cp *tracker.CriticalPoint) stagedPoint {
	return stagedPoint{
		Pos: cp.Pos, TNS: cp.Time.UnixNano(), SpeedKn: cp.SpeedKn, HeadingDeg: cp.HeadingDeg,
		Duration: cp.Duration, Confidence: cp.Confidence, Type: cp.Type,
	}
}

func (p *stagedPoint) toPoint(mmsi uint32) tracker.CriticalPoint {
	return tracker.CriticalPoint{
		MMSI: mmsi, Pos: p.Pos, Time: time.Unix(0, p.TNS).UTC(), Type: p.Type,
		SpeedKn: p.SpeedKn, HeadingDeg: p.HeadingDeg, Duration: p.Duration, Confidence: p.Confidence,
	}
}

// criticalPoints rebuilds a run of one vessel's staged points.
func criticalPoints(mmsi uint32, pts []stagedPoint) []tracker.CriticalPoint {
	out := make([]tracker.CriticalPoint, len(pts))
	for i := range pts {
		out[i] = pts[i].toPoint(mmsi)
	}
	return out
}

func isStop(t tracker.EventType) bool {
	return t == tracker.EventStopStart || t == tracker.EventStopEnd
}

// minTripDistance filters out degenerate "trips" between stop episodes
// at the same quay.
const minTripDistance = 2000.0 // meters

// New returns an empty store segmenting against the given ports.
func New(ports []PortArea) *MOD {
	return &MOD{
		ports:    ports,
		index:    make(map[uint32]int32),
		origin:   make(map[uint32]string),
		byVessel: make(map[uint32][]*Trip),
	}
}

// slot returns the vessel's staging slot, giving it one if it has none.
func (m *MOD) slot(mmsi uint32) int32 {
	i, ok := m.index[mmsi]
	if !ok {
		i = int32(len(m.vessels))
		m.index[mmsi] = i
		m.vessels = append(m.vessels, stagedVessel{mmsi: mmsi, from: -1})
	}
	return i
}

// Stage appends a batch of expired critical points to the staging area.
// Points must arrive in per-vessel time order, which the tracker's delta
// stream guarantees.
func (m *MOD) Stage(points []tracker.CriticalPoint) {
	for i := range points {
		slot := m.slot(points[i].MMSI)
		v := &m.vessels[slot]
		if v.from < 0 && isStop(points[i].Type) {
			v.from = int32(len(v.pts))
			m.dirty = append(m.dirty, slot)
		}
		v.pts = append(v.pts, stagedOf(&points[i]))
	}
	m.staged += len(points)
	m.pending += len(points)
}

// StagedCount returns the number of critical points awaiting assignment
// to a trajectory.
func (m *MOD) StagedCount() int { return m.staged }

// ScannedPoints returns how many staged points Reconstruct has accounted
// for over the store's lifetime: each point once, at the first
// Reconstruct after it was staged (Stage ran its stop test). It grows by
// what was staged since the previous Reconstruct, not by what is staged.
func (m *MOD) ScannedPoints() int { return m.scanned }

// portOfStop returns the port containing a long-term-stop critical
// point, or "".
func (m *MOD) portOfStop(p *stagedPoint) string {
	if !isStop(p.Type) {
		return ""
	}
	for i := range m.ports {
		if m.ports[i].Poly.Contains(p.Pos) {
			return m.ports[i].Name
		}
	}
	return ""
}

// pathMeters is the length of a run of staged points, summed as
// Trip.DistanceMeters sums it.
func pathMeters(pts []stagedPoint) float64 {
	var d float64
	for i := 1; i < len(pts); i++ {
		d += geo.Haversine(pts[i-1].Pos, pts[i].Pos)
	}
	return d
}

// Reconstruct processes the staging area: it scans the points staged
// since the previous call for long-term stops located inside port
// polygons and closes a trip whenever a new destination port is
// identified (paper §3.2). The completed trips are returned for a
// subsequent Load, ordered by vessel and then time; points that do not
// yet belong to a completed trip remain staged ("open-ended trips").
//
// Only vessels that staged a long-term stop since the previous call are
// visited, each from that stop: everything before it is the retained
// anchor of the open segment followed by points that cannot close it.
func (m *MOD) Reconstruct() []*Trip {
	m.scanned += m.pending
	m.pending = 0
	var completed []*Trip
	slices.SortFunc(m.dirty, func(a, b int32) int { return cmp.Compare(m.vessels[a].mmsi, m.vessels[b].mmsi) })
	for _, slot := range m.dirty {
		v := &m.vessels[slot]
		pts := v.pts
		cursor := 0 // start of the segment being assembled
		for i := int(v.from); i < len(pts); i++ {
			port := m.portOfStop(&pts[i])
			if port == "" {
				continue
			}
			if segment := pts[cursor : i+1]; len(segment) >= 2 && pathMeters(segment) >= minTripDistance {
				tp := criticalPoints(v.mmsi, segment)
				completed = append(completed, &Trip{
					MMSI:   v.mmsi,
					Origin: m.origin[v.mmsi],
					Dest:   port,
					Points: tp,
					Start:  tp[0].Time,
					End:    tp[len(tp)-1].Time,
				})
			}
			// Whether or not the segment qualified as a trip, the vessel
			// is now docked at the port: it becomes the next origin and
			// the stop anchors the next segment.
			m.origin[v.mmsi] = port
			cursor = i
		}
		if cursor > 0 {
			// Keep only the unassigned tail staged, in place: the array
			// stays the vessel's for its next trip.
			v.pts = pts[:copy(pts, pts[cursor:])]
			m.staged -= cursor
		}
		v.from = -1
	}
	m.dirty = m.dirty[:0]
	return completed
}

// Load inserts reconstructed trips into the archive and updates the
// per-vessel index — the paper's final "loading" stage, where
// "trajectory segments are inserted or updated in Hermes MOD".
func (m *MOD) Load(trips []*Trip) {
	for _, t := range trips {
		m.trips = append(m.trips, t)
		m.byVessel[t.MMSI] = append(m.byVessel[t.MMSI], t)
	}
}

// ReconstructAndLoad runs both stages, returning the number of trips
// completed.
func (m *MOD) ReconstructAndLoad() int {
	trips := m.Reconstruct()
	m.Load(trips)
	return len(trips)
}

// Trips returns all reconstructed trips. The slice must not be
// modified.
func (m *MOD) Trips() []*Trip { return m.trips }

// TripsOf returns the trips of one vessel in chronological order.
func (m *MOD) TripsOf(mmsi uint32) []*Trip {
	out := append([]*Trip(nil), m.byVessel[mmsi]...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
