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

	// staging holds per-vessel delta critical points not yet assigned to
	// a completed trip, in time order (the paper's staging table). A
	// vessel's slice only grows by append or is replaced by a fresh copy
	// of its unassigned tail. staged is their running count.
	staging map[uint32][]tracker.CriticalPoint
	staged  int
	// origin tracks the port the vessel departed from, once known.
	origin map[uint32]string

	// unscanned maps every vessel staged into since the last Reconstruct
	// to the index of its first staged point that no Reconstruct has
	// examined yet. It is derived state, not part of a snapshot: a scan
	// from index 0 finds the same trips (the retained anchor re-yields a
	// one-point segment and the same origin), only slower. scanned counts
	// the points examined over the store's lifetime.
	unscanned map[uint32]int
	scanned   int

	// trips and byVessel only grow by append, and a loaded trip is never
	// modified.
	trips    []*Trip
	byVessel map[uint32][]*Trip
}

// minTripDistance filters out degenerate "trips" between stop episodes
// at the same quay.
const minTripDistance = 2000.0 // meters

// New returns an empty store segmenting against the given ports.
func New(ports []PortArea) *MOD {
	return &MOD{
		ports:     ports,
		staging:   make(map[uint32][]tracker.CriticalPoint),
		origin:    make(map[uint32]string),
		unscanned: make(map[uint32]int),
		byVessel:  make(map[uint32][]*Trip),
	}
}

// Stage appends a batch of expired critical points to the staging area.
// Points must arrive in per-vessel time order, which the tracker's delta
// stream guarantees.
func (m *MOD) Stage(points []tracker.CriticalPoint) {
	for i := range points {
		mmsi := points[i].MMSI
		pts := m.staging[mmsi]
		if _, ok := m.unscanned[mmsi]; !ok {
			m.unscanned[mmsi] = len(pts)
		}
		m.staging[mmsi] = append(pts, points[i])
	}
	m.staged += len(points)
}

// StagedCount returns the number of critical points awaiting assignment
// to a trajectory.
func (m *MOD) StagedCount() int { return m.staged }

// ScannedPoints returns how many staged points Reconstruct has examined
// over the store's lifetime. It grows by what was staged since the
// previous Reconstruct, not by what is staged.
func (m *MOD) ScannedPoints() int { return m.scanned }

// portOfStop returns the port containing a long-term-stop critical
// point, or "".
func (m *MOD) portOfStop(cp *tracker.CriticalPoint) string {
	if cp.Type != tracker.EventStopStart && cp.Type != tracker.EventStopEnd {
		return ""
	}
	for i := range m.ports {
		if m.ports[i].Poly.Contains(cp.Pos) {
			return m.ports[i].Name
		}
	}
	return ""
}

// Reconstruct processes the staging area: it scans the points staged
// since the previous call for long-term stops located inside port
// polygons and closes a trip whenever a new destination port is
// identified (paper §3.2). The completed trips are returned for a
// subsequent Load, ordered by vessel and then time; points that do not
// yet belong to a completed trip remain staged ("open-ended trips").
//
// Only vessels staged into since the previous call are visited, each
// from its first unexamined point: everything before that is the
// retained anchor of the open segment followed by points already found
// not to close it.
func (m *MOD) Reconstruct() []*Trip {
	var completed []*Trip
	mmsis := make([]uint32, 0, len(m.unscanned))
	for mmsi := range m.unscanned {
		mmsis = append(mmsis, mmsi)
	}
	slices.Sort(mmsis)

	for _, mmsi := range mmsis {
		pts := m.staging[mmsi]
		from := m.unscanned[mmsi]
		m.scanned += len(pts) - from
		cursor := 0 // start of the segment being assembled
		for i := from; i < len(pts); i++ {
			port := m.portOfStop(&pts[i])
			if port == "" {
				continue
			}
			segment := pts[cursor : i+1]
			trip := &Trip{
				MMSI:   mmsi,
				Origin: m.origin[mmsi],
				Dest:   port,
				Points: append([]tracker.CriticalPoint(nil), segment...),
				Start:  segment[0].Time,
				End:    pts[i].Time,
			}
			if len(trip.Points) >= 2 && trip.DistanceMeters() >= minTripDistance {
				completed = append(completed, trip)
			}
			// Whether or not the segment qualified as a trip, the vessel
			// is now docked at the port: it becomes the next origin and
			// the stop anchors the next segment.
			m.origin[mmsi] = port
			cursor = i
		}
		if cursor > 0 {
			// Keep only the unassigned tail staged, in an array of its own.
			m.staging[mmsi] = append(pts[:0:0], pts[cursor:]...)
			m.staged -= cursor
		}
	}
	clear(m.unscanned)
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
