// Package geo provides the geographic substrate of the maritime
// surveillance system: WGS-84 points, Haversine distances and bearings,
// velocity vectors, linear interpolation along legs, polygons with
// containment and proximity tests, and a uniform grid index for fast
// point-to-area lookups.
//
// Following the paper (Patroumpas et al., EDBT 2015, §3 footnote 2),
// vessel motion between two consecutive AIS fixes evolves in a very small
// region, so it is locally approximated with a Euclidean plane while all
// distances are computed with the Haversine formula on the WGS-84 sphere.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by the Haversine formula.
const EarthRadiusMeters = 6371000.0

// Unit conversions used throughout the system.
const (
	MetersPerNauticalMile = 1852.0
	SecondsPerHour        = 3600.0
)

// KnotsToMetersPerSecond converts a speed in knots to meters per second.
func KnotsToMetersPerSecond(knots float64) float64 {
	return knots * MetersPerNauticalMile / SecondsPerHour
}

// MetersPerSecondToKnots converts a speed in meters per second to knots.
func MetersPerSecondToKnots(ms float64) float64 {
	return ms * SecondsPerHour / MetersPerNauticalMile
}

// Point is a WGS-84 position. Lon and Lat are in decimal degrees,
// positive east and north respectively.
type Point struct {
	Lon float64
	Lat float64
}

// String renders the point as "(lon, lat)" with 6 decimal digits
// (roughly 0.1 m resolution), the precision of AIS position reports.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lon, p.Lat)
}

// Valid reports whether the point lies within the legal WGS-84 ranges.
// AIS uses Lon=181 and Lat=91 as "not available" sentinels, which Valid
// rejects.
func (p Point) Valid() bool {
	return p.Lon >= -180 && p.Lon <= 180 && p.Lat >= -90 && p.Lat <= 90
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	lat1 := radians(a.Lat)
	lat2 := radians(b.Lat)
	dLat := radians(b.Lat - a.Lat)
	dLon := radians(b.Lon - a.Lon)

	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	// Clamp against floating-point drift before the square roots.
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadiusMeters * math.Atan2(math.Sqrt(s), math.Sqrt(1-s))
}

// Bearing returns the initial great-circle bearing from a to b in degrees
// in [0, 360), measured clockwise from true north.
func Bearing(a, b Point) float64 {
	lat1 := radians(a.Lat)
	lat2 := radians(b.Lat)
	dLon := radians(b.Lon - a.Lon)

	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	deg := degrees(math.Atan2(y, x))
	return math.Mod(deg+360, 360)
}

// Destination returns the point reached starting from p and traveling
// distanceMeters along the given initial bearing (degrees from north).
func Destination(p Point, bearingDeg, distanceMeters float64) Point {
	lat1 := radians(p.Lat)
	lon1 := radians(p.Lon)
	brng := radians(bearingDeg)
	d := distanceMeters / EarthRadiusMeters

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) +
		math.Cos(lat1)*math.Sin(d)*math.Cos(brng))
	lon2 := lon1 + math.Atan2(
		math.Sin(brng)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2))

	lon := degrees(lon2)
	// Normalize longitude to [-180, 180].
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return Point{Lon: lon, Lat: degrees(lat2)}
}

// Interpolate returns the point a fraction f of the way from a to b,
// with f=0 yielding a and f=1 yielding b. For the short legs between
// consecutive AIS fixes, linear interpolation in coordinate space is an
// adequate local-plane approximation (paper §3, footnote 2). Longitude
// wrap-around across the antimeridian is handled.
func Interpolate(a, b Point, f float64) Point {
	dLon := b.Lon - a.Lon
	if dLon > 180 {
		dLon -= 360
	} else if dLon < -180 {
		dLon += 360
	}
	lon := a.Lon + f*dLon
	if lon > 180 {
		lon -= 360
	} else if lon < -180 {
		lon += 360
	}
	return Point{
		Lon: lon,
		Lat: a.Lat + f*(b.Lat-a.Lat),
	}
}

// Centroid returns the arithmetic centroid of the given points, used by
// the tracker to collapse a long-term stop into a single critical point.
// It panics if pts is empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geo: Centroid of empty point set")
	}
	var sLon, sLat float64
	for _, p := range pts {
		sLon += p.Lon
		sLat += p.Lat
	}
	n := float64(len(pts))
	return Point{Lon: sLon / n, Lat: sLat / n}
}

// HeadingDelta returns the absolute angular difference between two
// headings in degrees, folded into [0, 180].
func HeadingDelta(h1, h2 float64) float64 {
	d := math.Abs(h1 - h2)
	if d >= 360 {
		// Mod(d, 360) == d for d < 360, so the call is only needed —
		// and only paid — outside the range in-contract headings span.
		d = math.Mod(d, 360)
	}
	if d > 180 {
		d = 360 - d
	}
	return d
}

// SignedHeadingDelta returns the smallest signed rotation that takes
// heading from to heading to, in degrees within (-180, 180]. Positive
// values are clockwise. The tracker accumulates these to detect smooth
// turns whose individual steps are each below the turn threshold.
func SignedHeadingDelta(from, to float64) float64 {
	d := to - from
	if d <= -360 || d >= 360 {
		// Mod(d, 360) == d for |d| < 360 (and the in-contract heading
		// range keeps d there); fold only the out-of-range stragglers.
		d = math.Mod(d, 360)
	}
	if d > 180 {
		d -= 360
	} else if d <= -180 {
		d += 360
	}
	return d
}
