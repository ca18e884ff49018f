// Package collision implements the online collision detection the
// paper cites as a beneficiary of trajectory compression (§1:
// "reducing latency of online collision detection") and the purpose
// AIS exists for ("AIS is intended to assist vessel crews in collision
// avoidance"). The detector keeps one kinematic state per vessel and,
// on demand, finds pairs on conflicting courses via closest point of
// approach (CPA): time-to-CPA and distance-at-CPA computed from the
// current velocity vectors, with the shared geo.PointIndex proximity
// grid so only plausibly reachable pairs are examined.
//
// The detector can be fed either raw AIS fixes (Observe) or the
// tracker's compressed critical-point state (ObservePoint) — the
// latter is the paper's motivating use: screening the whole fleet from
// the synopsis instead of the full stream. Queries are deterministic:
// given the same observation sequence, Encounters returns byte-equal
// results regardless of map iteration or fix arrival order.
package collision

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
)

// Params configures the detector.
type Params struct {
	// DistanceMeters is the DCPA threshold: pairs predicted to pass
	// closer than this raise an encounter (default 500 m).
	DistanceMeters float64
	// Horizon bounds the look-ahead: encounters with TCPA beyond it are
	// ignored (default 20 minutes).
	Horizon time.Duration
	// MaxSpeedKnots bounds plausible vessel speed for the spatial
	// pruning radius (default 40 knots).
	MaxSpeedKnots float64
	// Stale drops vessels not heard from for this long (default 15
	// minutes): their projected positions are meaningless. Stale state
	// is evicted (not merely skipped) on Encounters, so a long-running
	// detector's memory tracks the live fleet, not every vessel ever
	// seen.
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

// withDefaults fills unset fields.
func (p Params) withDefaults() Params {
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

// Encounter is one predicted close approach between two vessels.
type Encounter struct {
	A, B  uint32        // MMSIs, A < B
	TCPA  time.Duration // time to closest point of approach from query time
	DCPA  float64       // distance at CPA in meters
	Where geo.Point     // midpoint of the two projected CPA positions
}

// Stats counts the detector's state management for health accounting.
type Stats struct {
	// Vessels is the current kinematic-state population.
	Vessels int
	// LateRejected counts observations that arrived out of order —
	// behind their vessel's clock — and were discarded instead of
	// rewinding the vessel to a stale position.
	LateRejected int
	// Evicted counts vessels whose state was dropped after going silent
	// beyond Stale.
	Evicted int
	// PairsScreened is how many candidate pairs the last Encounters call
	// put through the CPA test.
	PairsScreened int
}

// Detector tracks vessel kinematics and answers encounter queries.
type Detector struct {
	params  Params
	vessels map[uint32]*kinematics

	lateRejected int
	evicted      int
	pairs        int // candidate pairs the last Encounters call tested

	// Query scratch, reused across Encounters calls.
	idx    *geo.PointIndex
	mmsis  []uint32
	states []planar
	out    []Encounter
}

type kinematics struct {
	pos      geo.Point
	at       time.Time
	vel      geo.Velocity
	haveVel  bool
	prev     ais.Fix
	havePrev bool
}

// New returns an empty detector.
func New(params Params) *Detector {
	return &Detector{
		params:  params.withDefaults(),
		vessels: make(map[uint32]*kinematics),
	}
}

// Observe updates a vessel's kinematics with a cleaned fix. Fixes that
// do not advance their vessel's clock — late, reordered, or duplicated
// arrivals — are rejected and counted, never applied: overwriting with
// a stale position would rewind the vessel and poison the next
// velocity estimate.
func (d *Detector) Observe(f ais.Fix) {
	k := d.vessels[f.MMSI]
	if k == nil {
		k = &kinematics{}
		d.vessels[f.MMSI] = k
	}
	if k.havePrev {
		if !f.Time.After(k.prev.Time) {
			d.lateRejected++
			return
		}
		if v, ok := geo.VelocityBetween(k.prev.Pos, k.prev.Time, f.Pos, f.Time); ok {
			k.vel = v
			k.haveVel = true
		}
	}
	k.prev = f
	k.havePrev = true
	k.pos = f.Pos
	k.at = f.Time
}

// ObservePoint updates a vessel's kinematics directly from tracker
// state: a critical point already carries the instantaneous speed and
// heading at detection, so no two-fix velocity estimation is needed.
// This is how the per-slide analytics tier feeds the detector from the
// compressed synopsis. Out-of-order points are rejected like Observe's
// late fixes.
func (d *Detector) ObservePoint(mmsi uint32, pos geo.Point, at time.Time, speedKn, headingDeg float64) {
	k := d.vessels[mmsi]
	if k == nil {
		k = &kinematics{}
		d.vessels[mmsi] = k
	}
	if k.havePrev && !at.After(k.prev.Time) {
		d.lateRejected++
		return
	}
	k.prev = ais.Fix{MMSI: mmsi, Pos: pos, Time: at}
	k.havePrev = true
	k.pos = pos
	k.at = at
	k.vel = geo.Velocity{SpeedKnots: speedKn, HeadingDeg: headingDeg}
	k.haveVel = true
}

// VesselCount returns the number of vessels with kinematic state.
func (d *Detector) VesselCount() int { return len(d.vessels) }

// Stats snapshots the detector's state accounting.
func (d *Detector) Stats() Stats {
	return Stats{
		Vessels:       len(d.vessels),
		LateRejected:  d.lateRejected,
		Evicted:       d.evicted,
		PairsScreened: d.pairs,
	}
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

// Encounters returns every pair predicted to pass within the DCPA
// threshold inside the horizon, as of query time now, ordered by TCPA.
// Vessels silent beyond Stale are evicted. The result is a pure
// function of the accepted observation history and now: vessels are
// processed in MMSI order and pair candidates come from the shared
// proximity index's deterministic scan, so arrival order, map layout
// and prior queries never change the output. The returned slice is the
// detector's scratch: it is valid until the next Encounters call.
func (d *Detector) Encounters(now time.Time) []Encounter {
	p := d.params
	// Evict vessels silent beyond Stale instead of skipping them: in a
	// long-running server the map would otherwise grow with every vessel
	// ever heard, live or gone.
	for mmsi, k := range d.vessels {
		if now.Sub(k.at) > p.Stale {
			delete(d.vessels, mmsi)
			d.evicted++
		}
	}
	// Project live vessels to a shared local plane in MMSI order; the
	// reference point (the lowest live MMSI's position) and every
	// floating-point rounding after it are then arrival-order
	// independent. Dead-reckon each vessel to the query time so
	// projections start from a common instant.
	mmsis := d.mmsis[:0]
	for mmsi, k := range d.vessels {
		if k.haveVel {
			mmsis = append(mmsis, mmsi)
		}
	}
	slices.Sort(mmsis)
	d.mmsis = mmsis
	var ref geo.Point
	states := d.states[:0]
	for i, mmsi := range mmsis {
		k := d.vessels[mmsi]
		if i == 0 {
			ref = k.pos
		}
		ms := geo.KnotsToMetersPerSecond(k.vel.SpeedKnots)
		brng := k.vel.HeadingDeg * math.Pi / 180
		pos := geo.Destination(k.pos, k.vel.HeadingDeg, ms*now.Sub(k.at).Seconds())
		x, y := planarOffset(ref, pos)
		states = append(states, planar{
			mmsi: mmsi,
			geo:  pos,
			x:    x, y: y,
			vx: ms * math.Sin(brng), vy: ms * math.Cos(brng),
			speedKn: k.vel.SpeedKnots,
		})
	}
	d.states = states
	// Two vessels can only meet within the horizon if they are currently
	// within reach = 2·maxSpeed·horizon + threshold. Publish the
	// dead-reckoned positions into the shared proximity index and take
	// the candidate pairs from it — the same index machinery the area
	// lookups and the rendezvous screen use, instead of a private
	// spatial hash. Each pair arrives once, lower index first, in the
	// order of querying every vessel in turn.
	reach := 2*geo.KnotsToMetersPerSecond(p.MaxSpeedKnots)*p.Horizon.Seconds() + p.DistanceMeters
	if d.idx == nil {
		d.idx = geo.NewPointIndex(reach / 111_000)
	}
	d.idx.Reset()
	for i, s := range states {
		d.idx.Add(int32(i), s.geo)
	}

	out, pairs := d.out[:0], 0
	d.idx.Pairs(reach, func(i, j int32) {
		pairs++
		a, b := &states[i], &states[j]
		if enc, ok := closestApproach(a, b, &p); ok {
			enc.A, enc.B = a.mmsi, b.mmsi
			enc.Where = planarToGeo(ref, enc.Where.Lon, enc.Where.Lat)
			out = append(out, enc)
		}
	})
	d.pairs = pairs
	slices.SortFunc(out, func(x, y Encounter) int {
		if c := cmp.Compare(x.TCPA, y.TCPA); c != 0 {
			return c
		}
		return cmp.Compare(x.A, y.A)
	})
	d.out = out
	return out
}

// closestApproach computes the closest point of approach of two planar
// states. The returned Encounter carries the CPA midpoint in plane
// coordinates in Where (converted by the caller). ok is false when the
// pair never comes within threshold inside the horizon. It runs once
// per candidate pair, so it takes pointers: copying two states and the
// parameters per call cost more than the arithmetic.
func closestApproach(a, b *planar, p *Params) (Encounter, bool) {
	if a.speedKn < p.MinSpeedKnots && b.speedKn < p.MinSpeedKnots {
		return Encounter{}, false // both effectively moored or adrift
	}
	dx, dy := b.x-a.x, b.y-a.y
	dvx, dvy := b.vx-a.vx, b.vy-a.vy
	relSq := dvx*dvx + dvy*dvy
	if relSq < p.MinClosingMS*p.MinClosingMS {
		return Encounter{}, false // near-identical motion: no closing
	}

	tcpa := -(dx*dvx + dy*dvy) / relSq
	if tcpa < 0 {
		tcpa = 0 // already diverging: closest approach is now
	}
	if tcpa > p.Horizon.Seconds() {
		return Encounter{}, false
	}
	cx, cy := dx+dvx*tcpa, dy+dvy*tcpa
	dcpa := math.Hypot(cx, cy)
	if dcpa > p.DistanceMeters {
		return Encounter{}, false
	}
	// CPA midpoint in plane coordinates, smuggled through Where.
	ax, ay := a.x+a.vx*tcpa, a.y+a.vy*tcpa
	bx, by := b.x+b.vx*tcpa, b.y+b.vy*tcpa
	return Encounter{
		TCPA:  time.Duration(tcpa * float64(time.Second)),
		DCPA:  dcpa,
		Where: geo.Point{Lon: (ax + bx) / 2, Lat: (ay + by) / 2},
	}, true
}

// planarOffset returns p's offset from ref in meters east (x) and
// north (y).
func planarOffset(ref, p geo.Point) (x, y float64) {
	const mPerDegLat = math.Pi * geo.EarthRadiusMeters / 180
	y = (p.Lat - ref.Lat) * mPerDegLat
	x = (p.Lon - ref.Lon) * mPerDegLat * math.Cos(ref.Lat*math.Pi/180)
	return x, y
}

// planarToGeo converts plane meters back to coordinates.
func planarToGeo(ref geo.Point, x, y float64) geo.Point {
	const mPerDegLat = math.Pi * geo.EarthRadiusMeters / 180
	return geo.Point{
		Lon: ref.Lon + x/(mPerDegLat*math.Cos(ref.Lat*math.Pi/180)),
		Lat: ref.Lat + y/mPerDegLat,
	}
}
