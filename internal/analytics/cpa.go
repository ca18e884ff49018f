package analytics

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/geo"
)

// CollisionParams tunes the collisionCourse screen: closest point of
// approach (CPA) over the tier's vessel state, the online collision
// detection the paper cites as a beneficiary of compression (§1).
type CollisionParams struct {
	// DistanceMeters is the DCPA threshold: pairs predicted to pass
	// closer than this raise an encounter (default 500 m).
	DistanceMeters float64
	// Horizon bounds the look-ahead: encounters with TCPA beyond it are
	// ignored (default 20 minutes).
	Horizon time.Duration
	// MaxSpeedKnots bounds plausible vessel speed for the spatial
	// pruning radius (default 40 knots).
	MaxSpeedKnots float64
	// Stale leaves out of the screen vessels whose newest critical point
	// is older than this at query time (default 15 minutes): their
	// projected positions are meaningless. The tier's own Config.Stale
	// still decides when their state is dropped.
	Stale time.Duration
	// MinSpeedKnots: at least one vessel of a pair must move this fast
	// (default 3 knots) — moored neighbors sharing a quay are not
	// collision traffic.
	MinSpeedKnots float64
	// MinClosingMS is the minimum relative speed in m/s (default 0.5):
	// pairs in near-identical motion (a loitering group, ships berthed
	// side by side) never alarm.
	MinClosingMS float64
}

func (p CollisionParams) withDefaults() CollisionParams {
	if p.DistanceMeters <= 0 {
		p.DistanceMeters = 500
	}
	if p.Horizon <= 0 {
		p.Horizon = 20 * time.Minute
	}
	if p.MaxSpeedKnots <= 0 {
		p.MaxSpeedKnots = 40
	}
	if p.Stale <= 0 {
		p.Stale = 15 * time.Minute
	}
	if p.MinSpeedKnots <= 0 {
		p.MinSpeedKnots = 3
	}
	if p.MinClosingMS <= 0 {
		p.MinClosingMS = 0.5
	}
	return p
}

// encounter is one predicted close approach between two vessels.
type encounter struct {
	A, B uint32        // MMSIs, A < B
	TCPA time.Duration // time to closest point of approach from query time
	DCPA float64       // distance at CPA in meters
}

// planar is a vessel state projected onto a local plane: meters east/
// north of a reference point, with velocity in meters/second.
type planar struct {
	mmsi    uint32
	geo     geo.Point // dead-reckoned position at query time
	x, y    float64
	vx, vy  float64
	speedKn float64
}

// cpaScreen is the collision screen's scratch, reused across slides;
// none of it is state.
type cpaScreen struct {
	idx    *geo.PointIndex
	mmsis  []uint32
	states []planar
	out    []encounter
	pairs  int // candidate pairs the last call tested
}

// encounters returns every pair of vessels in vs predicted to pass
// within the DCPA threshold inside the horizon, as of query time q,
// ordered by (TCPA, A). Vessels whose newest point is older than Stale
// are left out. The result is a pure function of vs, p and q: vessels
// are projected in MMSI order and pair candidates come from the shared
// proximity index's deterministic scan, so map layout and earlier calls
// never change it. The returned slice is scratch, valid until the next
// call.
func (s *cpaScreen) encounters(p *CollisionParams, vs map[uint32]*vstate, q time.Time) []encounter {
	// Project live vessels to a shared local plane in MMSI order; the
	// reference point (the lowest live MMSI's position) and every
	// floating-point rounding after it are then arrival-order
	// independent. Dead-reckon each vessel to the query time so
	// projections start from a common instant.
	mmsis := s.mmsis[:0]
	for mmsi, v := range vs {
		if q.Sub(v.at) <= p.Stale {
			mmsis = append(mmsis, mmsi)
		}
	}
	slices.Sort(mmsis)
	s.mmsis = mmsis
	var ref geo.Point
	states := s.states[:0]
	for i, mmsi := range mmsis {
		v := vs[mmsi]
		if i == 0 {
			ref = v.pos
		}
		ms := geo.KnotsToMetersPerSecond(v.speedKn)
		brng := v.headingDeg * math.Pi / 180
		pos := geo.Destination(v.pos, v.headingDeg, ms*q.Sub(v.at).Seconds())
		x, y := planarOffset(ref, pos)
		states = append(states, planar{
			mmsi: mmsi,
			geo:  pos,
			x:    x, y: y,
			vx: ms * math.Sin(brng), vy: ms * math.Cos(brng),
			speedKn: v.speedKn,
		})
	}
	s.states = states
	// Two vessels can only meet within the horizon if they are currently
	// within reach = 2·maxSpeed·horizon + threshold. Publish the
	// dead-reckoned positions into the shared proximity index and take
	// the candidate pairs from it. Each pair arrives once, lower index
	// first, in the order of querying every vessel in turn.
	reach := 2*geo.KnotsToMetersPerSecond(p.MaxSpeedKnots)*p.Horizon.Seconds() + p.DistanceMeters
	if s.idx == nil {
		s.idx = geo.NewPointIndex(reach / 111_000)
	}
	s.idx.Reset()
	for i, st := range states {
		s.idx.Add(int32(i), st.geo)
	}

	out, pairs := s.out[:0], 0
	s.idx.Pairs(reach, func(i, j int32) {
		pairs++
		a, b := &states[i], &states[j]
		if enc, ok := closestApproach(a, b, p); ok {
			enc.A, enc.B = a.mmsi, b.mmsi
			out = append(out, enc)
		}
	})
	s.pairs = pairs
	slices.SortFunc(out, func(x, y encounter) int {
		if c := cmp.Compare(x.TCPA, y.TCPA); c != 0 {
			return c
		}
		return cmp.Compare(x.A, y.A)
	})
	s.out = out
	return out
}

// closestApproach computes the closest point of approach of two planar
// states; the caller fills in the pair. ok is false when the pair never
// comes within threshold inside the horizon. It runs once
// per candidate pair, so it takes pointers: copying two states and the
// parameters per call cost more than the arithmetic.
func closestApproach(a, b *planar, p *CollisionParams) (encounter, bool) {
	if a.speedKn < p.MinSpeedKnots && b.speedKn < p.MinSpeedKnots {
		return encounter{}, false // both effectively moored or adrift
	}
	dx, dy := b.x-a.x, b.y-a.y
	dvx, dvy := b.vx-a.vx, b.vy-a.vy
	relSq := dvx*dvx + dvy*dvy
	if relSq < p.MinClosingMS*p.MinClosingMS {
		return encounter{}, false // near-identical motion: no closing
	}

	tcpa := -(dx*dvx + dy*dvy) / relSq
	if tcpa < 0 {
		tcpa = 0 // already diverging: closest approach is now
	}
	if tcpa > p.Horizon.Seconds() {
		return encounter{}, false
	}
	cx, cy := dx+dvx*tcpa, dy+dvy*tcpa
	dcpa := math.Hypot(cx, cy)
	if dcpa > p.DistanceMeters {
		return encounter{}, false
	}
	return encounter{TCPA: time.Duration(tcpa * float64(time.Second)), DCPA: dcpa}, true
}

// planarOffset returns p's offset from ref in meters east (x) and
// north (y).
func planarOffset(ref, p geo.Point) (x, y float64) {
	const mPerDegLat = math.Pi * geo.EarthRadiusMeters / 180
	y = (p.Lat - ref.Lat) * mPerDegLat
	x = (p.Lon - ref.Lon) * mPerDegLat * math.Cos(ref.Lat*math.Pi/180)
	return x, y
}
