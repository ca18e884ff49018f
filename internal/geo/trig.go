package geo

import (
	"math"
	"time"
)

// Cached-trigonometry variants of Haversine, Bearing and VelocityBetween
// for the tracker's hot path. Between two consecutive fixes of the same
// vessel, sin/cos of the previous fix's latitude were already computed
// when that fix arrived; caching them halves the trigonometric work of a
// distance-plus-bearing evaluation. Every function here performs exactly
// the same floating-point operations in exactly the same order as its
// uncached counterpart, so results are bit-identical — the tracker's
// golden equivalence tests depend on this.

// LatTrig caches the sine and cosine of a point's latitude (in radians).
type LatTrig struct {
	Sin float64
	Cos float64
}

// LatTrigOf computes the latitude trig cache for a point. math.Sincos
// shares the argument reduction between the two halves and returns
// values bit-identical to separate math.Sin and math.Cos calls (the Go
// implementation evaluates the same polynomials after the same
// reduction; the trig tests pin this); sincosSmall is math.Sincos
// without the reduction below 45° (kernels.go).
func LatTrigOf(p Point) LatTrig {
	s, c := sincosSmall(radians(p.Lat))
	return LatTrig{Sin: s, Cos: c}
}

// HaversineCached returns the great-circle distance between a and b in
// meters, bit-identical to Haversine(a, b), given each point's cached
// latitude trig.
func HaversineCached(a, b Point, ta, tb LatTrig) float64 {
	return HaversineCos(a, b, ta.Cos, tb.Cos)
}

// HaversineCos is HaversineCached given only the cosines of the two
// latitudes, the one half of the latitude trig a distance reads. Its
// sines and arctangent are the inline kernels (kernels.go), which
// return math's bits.
func HaversineCos(a, b Point, cosA, cosB float64) float64 {
	dLat := radians(b.Lat - a.Lat)
	dLon := radians(b.Lon - a.Lon)

	sdLat := sinSmall(dLat / 2)
	sdLon := sinSmall(dLon / 2)
	// Same association order as Haversine: ((cos·cos)·sin)·sin.
	s := sdLat*sdLat + cosA*cosB*sdLon*sdLon
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadiusMeters * atan2(math.Sqrt(s), math.Sqrt(1-s))
}

// BearingCached returns the initial bearing from a to b in degrees,
// bit-identical to Bearing(a, b), given each point's cached latitude
// trig.
func BearingCached(a, b Point, ta, tb LatTrig) float64 {
	dLon := radians(b.Lon - a.Lon)

	y := math.Sin(dLon) * tb.Cos
	x := ta.Cos*tb.Sin - ta.Sin*tb.Cos*math.Cos(dLon)
	deg := degrees(math.Atan2(y, x))
	return math.Mod(deg+360, 360)
}

// VelocityDistBetween computes the velocity vector implied by moving
// from a to b over the (positive) duration dt, plus the Haversine
// distance itself so callers advancing an odometer reuse it instead of
// recomputing. The distance (and so the speed) is bit-identical to
// Haversine. The heading fuses the bearing formula with the haversine's
// half-angle term: sin Δλ and cos Δλ come from sin(Δλ/2) by the double-
// angle identities instead of two more trig calls, and the final fold
// into [0, 360) is a conditional add instead of math.Mod. The result
// agrees with Bearing to within a few ULPs — every consumer (the
// tracker) resolves headings through this one function, so the
// tracker's equivalence goldens are unaffected. Its sines and
// arctangents are the inline kernels (kernels.go), which return
// math's bits.
// dt must be positive; the caller has already rejected non-advancing
// timestamps.
func VelocityDistBetween(a, b Point, dt time.Duration, ta, tb LatTrig) (Velocity, float64) {
	dLat := radians(b.Lat - a.Lat)
	dLon := radians(b.Lon - a.Lon)

	sdLat := sinSmall(dLat / 2)
	sdLon := sinSmall(dLon / 2)
	// Same association order as Haversine: ((cos·cos)·sin)·sin.
	s := sdLat*sdLat + ta.Cos*tb.Cos*sdLon*sdLon
	if s > 1 {
		s = 1
	}
	// math.Atan2(y, x) with y >= 0 and finite x > 0 reduces to
	// Atan(y/x) — same division, same polynomial — and to Pi/2 when
	// x == 0 (s clamped to 1); calling those directly skips Atan2's
	// special-case ladder while returning the identical bits.
	sy, cx := math.Sqrt(s), math.Sqrt(1-s)
	ang := math.Pi / 2
	if cx > 0 {
		ang = atan(sy / cx)
	}
	dist := 2 * EarthRadiusMeters * ang

	v := Velocity{SpeedKnots: MetersPerSecondToKnots(dist / dt.Seconds())}
	if dist > 0 {
		var sinD, cosD float64
		if dLon >= -math.Pi && dLon <= math.Pi {
			// |Δλ/2| <= 90°, so cos(Δλ/2) = sqrt(1 - sin²) is safe.
			cdLon := math.Sqrt(1 - sdLon*sdLon)
			sinD = 2 * sdLon * cdLon
			cosD = 1 - 2*sdLon*sdLon
		} else {
			sinD, cosD = math.Sincos(dLon)
		}
		y := sinD * tb.Cos
		x := ta.Cos*tb.Sin - ta.Sin*tb.Cos*cosD
		deg := degrees(atan2(y, x))
		if deg < 0 {
			deg += 360
		}
		if deg >= 360 { // deg == -ε rounded up to 360 by the add
			deg -= 360
		}
		v.HeadingDeg = deg
	}
	return v, dist
}

// SinCosDeg returns math.Sin and math.Cos of an angle given in degrees,
// with the same degree-to-radian conversion the package uses everywhere.
// Uses math.Sincos (bit-identical to the separate calls, see LatTrigOf)
// to share the argument reduction.
func SinCosDeg(deg float64) (sin, cos float64) {
	return math.Sincos(radians(deg))
}

// HeadingFromComponents folds east/north velocity components into a
// heading in [0, 360), exactly as MeanVelocity does. Callers that keep
// per-sample sin/cos caches accumulate x and y themselves and use this
// for the final fold.
func HeadingFromComponents(x, y float64) float64 {
	return normalizeHeading(degrees(math.Atan2(x, y)))
}

// L1DistanceBoundMeters returns a conservative upper bound on the
// great-circle distance between two points separated by at most dLatDeg
// degrees of latitude and dLonDeg degrees of longitude (both
// non-negative): the meridian-then-parallel path is at most
// R·(|Δφ|+|Δλ|) radians long, and a parallel arc is never longer than
// the corresponding equatorial arc. Any true Haversine distance is ≤
// this bound, so a bound that fits a radius guarantees containment —
// the stop-run fast path uses it to skip exact per-point scans.
func L1DistanceBoundMeters(dLatDeg, dLonDeg float64) float64 {
	return EarthRadiusMeters * (dLatDeg + dLonDeg) * (math.Pi / 180)
}
