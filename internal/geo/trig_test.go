package geo

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// randPoints returns deterministic pseudo-random point pairs spanning the
// globe, biased toward small separations (the tracker's consecutive-fix
// regime) but including antipodal-scale jumps.
func randPoints(n int) [][2]Point {
	rng := rand.New(rand.NewSource(42))
	out := make([][2]Point, 0, n)
	for i := 0; i < n; i++ {
		a := Point{Lon: rng.Float64()*360 - 180, Lat: rng.Float64()*170 - 85}
		var b Point
		if i%3 == 0 {
			// Unconstrained second point.
			b = Point{Lon: rng.Float64()*360 - 180, Lat: rng.Float64()*170 - 85}
		} else {
			// A nearby fix, ~0–2 km away.
			b = Point{Lon: a.Lon + (rng.Float64()-0.5)*0.04, Lat: a.Lat + (rng.Float64()-0.5)*0.02}
		}
		out = append(out, [2]Point{a, b})
	}
	return out
}

// TestCachedTrigBitIdentical pins the contract the tracker's golden
// equivalence rests on: the cached-trig variants perform the same
// floating-point operations in the same order as their uncached
// counterparts, so results are bit-identical — not merely close.
func TestCachedTrigBitIdentical(t *testing.T) {
	for _, pp := range randPoints(2000) {
		a, b := pp[0], pp[1]
		ta, tb := LatTrigOf(a), LatTrigOf(b)

		wantD := Haversine(a, b)
		if gotD := HaversineCached(a, b, ta, tb); gotD != wantD {
			t.Fatalf("HaversineCached(%v, %v) = %v, Haversine = %v (diff %g)",
				a, b, gotD, wantD, gotD-wantD)
		}
		wantB := Bearing(a, b)
		if gotB := BearingCached(a, b, ta, tb); gotB != wantB {
			t.Fatalf("BearingCached(%v, %v) = %v, Bearing = %v", a, b, gotB, wantB)
		}
	}
}

// TestHaversineSymmetricAndCosCached pins the two facts the tracker's
// run representatives rest on: Haversine(a, b) equals Haversine(b, a)
// bit for bit (so a pairwise sum may compute each pair once), and
// HaversineCos over the latitudes' cosines — cached by LatTrigOf or
// computed by math.Cos — equals Haversine bit for bit.
func TestHaversineSymmetricAndCosCached(t *testing.T) {
	for _, pp := range randPoints(20000) {
		a, b := pp[0], pp[1]
		want := Haversine(a, b)
		if rev := Haversine(b, a); rev != want {
			t.Fatalf("Haversine(%v, %v) = %v, reversed %v", a, b, want, rev)
		}
		ca, cb := LatTrigOf(a).Cos, LatTrigOf(b).Cos
		if got := HaversineCos(a, b, ca, cb); got != want {
			t.Fatalf("HaversineCos(%v, %v) = %v, Haversine = %v", a, b, got, want)
		}
		if got := HaversineCos(b, a, cb, ca); got != want {
			t.Fatalf("HaversineCos(%v, %v) reversed = %v, Haversine = %v", a, b, got, want)
		}
		if got := HaversineCos(a, b, math.Cos(radians(a.Lat)), math.Cos(radians(b.Lat))); got != want {
			t.Fatalf("HaversineCos(%v, %v) over math.Cos = %v, Haversine = %v", a, b, got, want)
		}
	}
}

// TestSincosBitIdentical pins the platform assumption LatTrigOf and
// SinCosDeg rely on: math.Sincos returns exactly what separate math.Sin
// and math.Cos calls return, so cached trig stays bit-compatible with
// the uncached formulas that call Sin and Cos individually.
func TestSincosBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 100000; i++ {
		x := (rng.Float64() - 0.5) * 4 * math.Pi
		s, c := math.Sincos(x)
		if s != math.Sin(x) || c != math.Cos(x) {
			t.Fatalf("math.Sincos(%v) = (%v, %v), Sin/Cos = (%v, %v)", x, s, c, math.Sin(x), math.Cos(x))
		}
	}
}

// TestVelocityDistBetween checks the fused velocity+distance helper
// against VelocityBetween plus a separate Haversine call: speed and
// distance must be bit-identical; the heading (computed through the
// double-angle fusion) must agree to within a microdegree and stay in
// [0, 360).
func TestVelocityDistBetween(t *testing.T) {
	t0 := time.Unix(1_400_000_000, 0).UTC()
	for i, pp := range randPoints(2000) {
		a, b := pp[0], pp[1]
		dt := time.Duration(1+i%600) * time.Second
		ta, tb := LatTrigOf(a), LatTrigOf(b)

		wantV, ok := VelocityBetween(a, t0, b, t0.Add(dt))
		if !ok {
			t.Fatalf("VelocityBetween rejected positive dt %v", dt)
		}
		wantD := Haversine(a, b)
		gotV, gotD := VelocityDistBetween(a, b, dt, ta, tb)
		if gotV.SpeedKnots != wantV.SpeedKnots {
			t.Fatalf("VelocityDistBetween(%v, %v, %v) speed = %v, want %v", a, b, dt, gotV.SpeedKnots, wantV.SpeedKnots)
		}
		if gotD != wantD {
			t.Fatalf("VelocityDistBetween(%v, %v) dist = %v, want %v", a, b, gotD, wantD)
		}
		if gotV.HeadingDeg < 0 || gotV.HeadingDeg >= 360 {
			t.Fatalf("heading %v outside [0, 360)", gotV.HeadingDeg)
		}
		if d := HeadingDelta(gotV.HeadingDeg, wantV.HeadingDeg); d > 1e-6 {
			t.Fatalf("VelocityDistBetween(%v, %v) heading = %v, Bearing-based = %v (delta %g)",
				a, b, gotV.HeadingDeg, wantV.HeadingDeg, d)
		}
	}
}

// TestSinCosDegMatchesMeanVelocity pins the per-sample cache the tracker
// keeps for its mean-velocity fold: SinCosDeg plus HeadingFromComponents
// must reproduce MeanVelocity bit-for-bit.
func TestSinCosDegMatchesMeanVelocity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		vs := make([]Velocity, 1+trial%12)
		for i := range vs {
			vs[i] = Velocity{SpeedKnots: rng.Float64() * 30, HeadingDeg: rng.Float64() * 360}
		}
		want, _ := MeanVelocity(vs)

		var x, y, speed float64
		for _, v := range vs {
			sin, cos := SinCosDeg(v.HeadingDeg)
			x += v.SpeedKnots * sin
			y += v.SpeedKnots * cos
			speed += v.SpeedKnots
		}
		got := Velocity{SpeedKnots: speed / float64(len(vs))}
		if x != 0 || y != 0 {
			got.HeadingDeg = HeadingFromComponents(x, y)
		}
		if got != want {
			t.Fatalf("cached fold = %+v, MeanVelocity = %+v", got, want)
		}
	}
}

// TestL1BoundDominatesHaversine is the soundness property of the stop-run
// fast path: for any two points, the L1 bound computed from their
// coordinate deltas must be >= the true great-circle distance, so a bound
// that fits inside a radius proves containment.
func TestL1BoundDominatesHaversine(t *testing.T) {
	for _, pp := range randPoints(5000) {
		a, b := pp[0], pp[1]
		dLat := math.Abs(b.Lat - a.Lat)
		dLon := math.Abs(b.Lon - a.Lon)
		if dLon > 180 {
			// The tracker's bounding boxes never wrap the antimeridian;
			// keep the property aligned with how the bound is used.
			continue
		}
		bound := L1DistanceBoundMeters(dLat, dLon)
		if d := Haversine(a, b); d > bound {
			t.Fatalf("L1 bound %v m < true distance %v m for %v -> %v", bound, d, a, b)
		}
	}
}

// TestKernelsBitIdentical pins the inline kernels to the math functions
// they stand for, bit for bit, over 10⁷ arguments each: random bit
// patterns (±0, subnormals, ±Inf and NaN among them), the per-fix
// ranges, and the edges where the kernels hand over — the ulps around
// π/4 for sinSmall and sincosSmall, around 0.66 and tan(3π/8) for atan.
func TestKernelsBitIdentical(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	rng := rand.New(rand.NewSource(7))
	var edges []float64
	for _, e := range []float64{0, math.Pi / 4, 0.66, 2.41421356237309504880, 1, math.MaxFloat64, 5e-324, 0x1p-1022} {
		x := e
		for k := 0; k < 64; k++ {
			edges = append(edges, x, -x)
			x = math.Nextafter(x, math.Inf(1))
		}
		x = e
		for k := 0; k < 64; k++ {
			x = math.Nextafter(x, math.Inf(-1))
			edges = append(edges, x, -x)
		}
	}
	edges = append(edges, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1))
	arg := func(i int) float64 {
		switch {
		case i < len(edges):
			return edges[i]
		case i%4 == 0:
			return math.Float64frombits(rng.Uint64())
		case i%4 == 1:
			return (rng.Float64() - 0.5) * (math.Pi / 2) * 1.01 // |x| around π/4
		case i%4 == 2:
			return (rng.Float64() - 0.5) * 1e-3 // half-angles of nearby fixes
		default:
			return rng.NormFloat64() * 10
		}
	}
	for i := 0; i < n; i++ {
		x := arg(i)
		if got, want := sinSmall(x), math.Sin(x); !same(got, want) {
			t.Fatalf("sinSmall(%v) = %v, math.Sin = %v", x, got, want)
		}
		gs, gc := sincosSmall(x)
		if ws, wc := math.Sincos(x); !same(gs, ws) || !same(gc, wc) {
			t.Fatalf("sincosSmall(%v) = %v, %v, math.Sincos = %v, %v", x, gs, gc, ws, wc)
		}
		if got, want := atan(x), math.Atan(x); !same(got, want) {
			t.Fatalf("atan(%v) = %v, math.Atan = %v", x, got, want)
		}
	}
	for i := 0; i < n; i++ {
		y, x := arg(i), arg((i*7919+13)%n)
		if i%3 == 0 {
			x = arg(i + 1)
		}
		if got, want := atan2(y, x), math.Atan2(y, x); !same(got, want) {
			t.Fatalf("atan2(%v, %v) = %v, math.Atan2 = %v", y, x, got, want)
		}
	}
}
