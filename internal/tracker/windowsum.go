package tracker

import "math"

// windowSum carries the turn window's running sums, so the smooth-turn
// test — the cumulative heading change over the last M steps against
// Δθ — is settled without folding the ring unless the threshold falls
// within the sums' error bound. The test's outcome is the exact
// oldest-first fold's (ringSum), bit for bit: only a window the bound
// cannot settle is folded, and a smooth turn that fires takes its
// confidence from the fold.
//
// sum and abs are the running float sums of the entries and of their
// magnitudes, updated as entries enter and leave the ring; err bounds
// how far each lies from the real sum of the entries it stands for.
// A rounded addition or subtraction errs by at most u·|result| (u =
// 2^-53, the unit roundoff), so err grows by that much per update; the
// exact fold of n entries lies within (n−1)·u·Σ|r| of the real sum,
// and Σ|r| is at most |abs| + err. slack adds the two and pads the
// total by a further u'·(|abs| + err + |sum|), which pays for the one
// rounding of the comparison made with it. u' = 2^-50, eight times u,
// pays for the rounding of the bound's own arithmetic.
//
// A non-finite entry makes the sums NaN or infinite until the window is
// reset; the comparison with them is then false and the test folds the
// ring, as it would without them.
//
// The speed window keeps its fold: the outlier gate reads it for the
// fixes past the 15-knot floor only, and a running sum would read the
// ring's leaving entry on every fix (EXPERIMENTS.md, "Word-at-a-time
// decode and bound-first turns").
type windowSum struct {
	sum, abs, err float64
}

// sumUlp is u', the bound's per-rounding factor.
const sumUlp = 0x1p-50

// add accounts for an entry entering the window.
func (w *windowSum) add(r float64) {
	w.sum += r
	w.abs += math.Abs(r)
	w.err += sumUlp * (math.Abs(w.sum) + math.Abs(w.abs))
}

// sub accounts for an entry leaving the window.
func (w *windowSum) sub(r float64) {
	w.sum -= r
	w.abs -= math.Abs(r)
	w.err += sumUlp * (math.Abs(w.sum) + math.Abs(w.abs))
}

// slack bounds |sum − ringSum| for a window of n entries, padded so
// that one rounded addition or subtraction of it keeps the bound.
func (w *windowSum) slack(n int32) float64 {
	return w.err + float64(n+1)*sumUlp*(math.Abs(w.abs)+w.err+math.Abs(w.sum))
}

// pushWindow appends r to a ring of len(ring) entries whose running sums
// w carries, dropping the oldest entry from both when the ring is full.
func pushWindow(ring []float64, head, n *int32, w *windowSum, r float64) {
	if int(*n) == len(ring) {
		w.sub(ring[*head])
	}
	ring[ringNext(int32(len(ring)), head, n)] = r
	w.add(r)
}

// cumTurnAbove reports whether the cumulative heading change over the
// turn window, ringSum(ring, head, n), exceeds threshold in magnitude,
// and returns it when it does. A window whose bound keeps it within the
// threshold is settled without folding the ring.
func cumTurnAbove(threshold float64, ring []float64, head, n int32, w *windowSum) (cum float64, above bool) {
	if math.Abs(w.sum)+w.slack(n) <= threshold {
		return 0, false
	}
	cum = ringSum(ring, head, n)
	return cum, math.Abs(cum) > threshold
}
