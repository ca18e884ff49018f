package mod

import (
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/tracker"
)

// RangeQuery returns the trips that intersect the given spatial box and
// overlap the time interval [from, to], the basic historical query of a
// moving object database.
func (m *MOD) RangeQuery(box geo.BBox, from, to time.Time) []*Trip {
	var out []*Trip
	for _, t := range m.trips {
		if t.End.Before(from) || t.Start.After(to) {
			continue
		}
		if !t.BBox().Intersects(box) {
			continue
		}
		// Refine: at least one critical point inside the box and interval.
		for _, cp := range t.Points {
			if box.Contains(cp.Pos) && !cp.Time.Before(from) && !cp.Time.After(to) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// NearestTrips returns the k trips whose paths pass closest to p,
// ordered by ascending distance.
func (m *MOD) NearestTrips(p geo.Point, k int) []*Trip {
	type scored struct {
		t *Trip
		d float64
	}
	all := make([]scored, 0, len(m.trips))
	for _, t := range m.trips {
		best := -1.0
		for i := 1; i < len(t.Points); i++ {
			d := distanceToLeg(p, t.Points[i-1].Pos, t.Points[i].Pos)
			if best < 0 || d < best {
				best = d
			}
		}
		if best < 0 && len(t.Points) == 1 {
			best = geo.Haversine(p, t.Points[0].Pos)
		}
		all = append(all, scored{t: t, d: best})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	if k > len(all) {
		k = len(all)
	}
	out := make([]*Trip, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].t
	}
	return out
}

// distanceToLeg approximates the distance from p to the segment ab by
// sampling, adequate at trip-leg scale for ranking.
func distanceToLeg(p, a, b geo.Point) float64 {
	best := geo.Haversine(p, a)
	for i := 1; i <= 8; i++ {
		q := geo.Interpolate(a, b, float64(i)/8)
		if d := geo.Haversine(p, q); d < best {
			best = d
		}
	}
	return best
}

// Similarity returns the mean Haversine distance in meters between two
// trips sampled at n aligned fractions of their respective durations —
// the time-normalized similarity used for "similarity search among
// recent vessel paths" (paper §1). Lower is more similar.
func Similarity(a, b *Trip, n int) float64 {
	if n < 2 {
		n = 2
	}
	sa := synopsisOf(a)
	sb := synopsisOf(b)
	var sum float64
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		pa, _ := sa.At(a.Start.Add(time.Duration(f * float64(a.Duration()))))
		pb, _ := sb.At(b.Start.Add(time.Duration(f * float64(b.Duration()))))
		sum += geo.Haversine(pa, pb)
	}
	return sum / float64(n)
}

// synopsisOf adapts a trip's points for interpolation.
func synopsisOf(t *Trip) tracker.Synopsis {
	return tracker.Synopsis(t.Points)
}

// PositionAt answers the basic historical lookup — where was the
// vessel at time t — from the archive and, failing that, from the
// staging area (open-ended trips). ok is false when the store has no
// trajectory covering t for the vessel.
func (m *MOD) PositionAt(mmsi uint32, t time.Time) (geo.Point, bool) {
	for _, trip := range m.byVessel[mmsi] {
		if t.Before(trip.Start) || t.After(trip.End) {
			continue
		}
		if p, ok := synopsisOf(trip).At(t); ok {
			return p, true
		}
	}
	var pts []stagedPoint
	if slot, ok := m.index[mmsi]; ok {
		pts = m.vessels[slot].pts
	}
	if len(pts) == 0 || t.Before(time.Unix(0, pts[0].TNS)) || t.After(time.Unix(0, pts[len(pts)-1].TNS)) {
		return geo.Point{}, false
	}
	return tracker.Synopsis(criticalPoints(mmsi, pts)).At(t)
}
