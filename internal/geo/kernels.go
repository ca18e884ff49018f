package geo

import "math"

// Inline trig kernels for the per-fix distance, heading and latitude
// trig. Each returns exactly what its math counterpart returns, bit for
// bit, for every argument: it evaluates the same Cephes polynomial in
// the same order, and hands any argument outside its range to the math
// function. What it skips is work the tracker's arguments never need:
// the argument reduction of math.Sin and math.Sincos below π/4 (every
// half-angle of two fixes minutes apart, every latitude below 45°), and
// the special-case ladder of math.Atan2 for finite non-zero arguments
// (TestKernelsBitIdentical pins them over 10⁷ arguments each).

// The coefficients of math.Sin's sine polynomial (sin.go).
const (
	sin0 = 1.58962301576546568060e-10
	sin1 = -2.50507477628578072866e-8
	sin2 = 2.75573136213857245213e-6
	sin3 = -1.98412698295895385996e-4
	sin4 = 8.33333333332211858878e-3
	sin5 = -1.66666666666666307295e-1
)

// The coefficients of math.Cos's cosine polynomial (sin.go).
const (
	cos0 = -1.13585365213876817300e-11
	cos1 = 2.08757008419747316778e-9
	cos2 = -2.75573141792967388112e-7
	cos3 = 2.48015872888517045348e-5
	cos4 = -1.38888888888730564116e-3
	cos5 = 4.16666666666665929218e-2
)

// sinSmall returns math.Sin(x). For 0 < |x|·4/π < 1, math.Sin's octant
// j is 0 and its reduction leaves z = x exactly; its polynomial in x is
// odd and rounds the same for x and −x, so it is evaluated here on x
// itself. ±0, NaN and every larger |x| go to math.Sin.
func sinSmall(x float64) float64 {
	if x == 0 || !(math.Abs(x)*(4/math.Pi) < 1) {
		return math.Sin(x)
	}
	zz := x * x
	return x + x*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
}

// sincosSmall returns math.Sincos(x). For 0 < |x|·4/π < 1 math.Sincos
// takes octant 0, where z = |x| exactly; the cosine polynomial reads
// only z², and the sine polynomial is odd, so both are evaluated on x.
// ±0, NaN and every larger |x| go to math.Sincos.
func sincosSmall(x float64) (sin, cos float64) {
	if x == 0 || !(math.Abs(x)*(4/math.Pi) < 1) {
		return math.Sincos(x)
	}
	zz := x * x
	cos = 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
	sin = x + x*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
	return sin, cos
}

// xatan is math's xatan (atan.go): the series valid in [0, 0.66].
func xatan(x float64) float64 {
	const (
		P0 = -8.750608600031904122785e-01
		P1 = -1.615753718733365076637e+01
		P2 = -7.500855792314704667340e+01
		P3 = -1.228866684490136173410e+02
		P4 = -6.485021904942025371773e+01
		Q0 = +2.485846490142306297962e+01
		Q1 = +1.650270098316988542046e+02
		Q2 = +4.328810604912902668951e+02
		Q3 = +4.853903996359136964868e+02
		Q4 = +1.945506571482613964425e+02
	)
	z := x * x
	z = z * ((((P0*z+P1)*z+P2)*z+P3)*z + P4) / (((((z+Q0)*z+Q1)*z+Q2)*z+Q3)*z + Q4)
	z = x*z + x
	return z
}

// atanPos returns math.Atan(x) for x > 0 or NaN: math's satan, which
// reduces x to [0, 0.66] before the series.
func atanPos(x float64) float64 {
	const (
		Morebits = 6.123233995736765886130e-17 // pi/2 = PIO2 + Morebits
		Tan3pio8 = 2.41421356237309504880      // tan(3*pi/8)
	)
	if x <= 0.66 {
		return xatan(x)
	}
	if x > Tan3pio8 {
		return math.Pi/2 - xatan(1/x) + Morebits
	}
	return math.Pi/4 + xatan((x-1)/(x+1)) + 0.5*Morebits
}

// atan returns math.Atan(x).
func atan(x float64) float64 {
	if x == 0 {
		return x
	}
	if x > 0 {
		return atanPos(x)
	}
	return -atanPos(-x)
}

// atan2 returns math.Atan2(y, x). For finite non-zero y and x math.Atan2
// is Atan(y/x) moved into the quadrant of (x, y); every other argument
// goes to math.Atan2.
func atan2(y, x float64) float64 {
	if y == 0 || x == 0 || !(math.Abs(y) <= math.MaxFloat64) || !(math.Abs(x) <= math.MaxFloat64) {
		return math.Atan2(y, x)
	}
	q := atan(y / x)
	if x < 0 {
		if q <= 0 {
			return q + math.Pi
		}
		return q - math.Pi
	}
	return q
}
