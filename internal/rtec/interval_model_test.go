package rtec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The bitmap-over-time model of an interval list: a list is the set of
// integer timepoints at which the fluent holds. Under the (Since, Until]
// semantics interval (s, u] holds at every integer t with s < t ≤ u, and
// an open interval (s, ∞) at every t > s. Endpoints are drawn from
// [0, modelSpan], so beyond modelSpan membership is constant: bit
// modelSpan+1 stands for every t > modelSpan.
const modelSpan = 40

type bitmap [modelSpan + 2]bool

// bitsOf is the model of any interval slice, normalized or not.
func bitsOf(ivs ...Interval) bitmap {
	var b bitmap
	for _, v := range ivs {
		for t := range b {
			if v.Covers(Timepoint(t)) {
				b[t] = true
			}
		}
	}
	return b
}

// holds reads the model at any timepoint.
func (b bitmap) holds(t Timepoint) bool {
	switch {
	case t < 0:
		return false
	case t > modelSpan:
		return b[modelSpan+1]
	}
	return b[t]
}

// list is the one canonical interval list with the model's coverage:
// each maximal run of held timepoints [i, j] is the interval (i-1, j],
// and a run reaching past modelSpan is open.
func (b bitmap) list() IntervalList {
	var out IntervalList
	for t := 0; t < len(b); t++ {
		if !b[t] {
			continue
		}
		start := t
		for t < len(b) && b[t] {
			t++
		}
		until := Timepoint(t - 1)
		if t == len(b) {
			until = Inf
		}
		out = append(out, Interval{Since: Timepoint(start - 1), Until: until})
	}
	return out
}

func (b bitmap) and(o bitmap) bitmap {
	for t := range b {
		b[t] = b[t] && o[t]
	}
	return b
}

func (b bitmap) or(o bitmap) bitmap {
	for t := range b {
		b[t] = b[t] || o[t]
	}
	return b
}

func (b bitmap) andNot(o bitmap) bitmap {
	for t := range b {
		b[t] = b[t] && !o[t]
	}
	return b
}

// randModelInterval draws an interval on the model's domain: open ones,
// empty and inverted ones, and ones starting where an earlier one ended
// (adjacency) all occur.
func randModelInterval(rng *rand.Rand, prevUntil Timepoint) Interval {
	since := Timepoint(rng.Intn(modelSpan + 1))
	if prevUntil >= 0 && prevUntil <= modelSpan && rng.Intn(4) == 0 {
		since = prevUntil
	}
	switch rng.Intn(8) {
	case 0:
		return Interval{Since: since, Until: Inf}
	case 1:
		return Interval{Since: since, Until: since - Timepoint(rng.Intn(3))} // empty or inverted
	}
	until := since + Timepoint(rng.Intn(10))
	if until > modelSpan {
		until = modelSpan
	}
	return Interval{Since: since, Until: until}
}

// randModelRaw draws an unnormalized slice of up to 7 intervals.
func randModelRaw(rng *rand.Rand) []Interval {
	ivs := make([]Interval, rng.Intn(8))
	prev := Timepoint(0)
	for i := range ivs {
		ivs[i] = randModelInterval(rng, prev)
		prev = ivs[i].Until
	}
	return ivs
}

// randModelWindow draws a window, sometimes empty, sometimes open.
func randModelWindow(rng *rand.Rand) Interval {
	since := Timepoint(rng.Intn(modelSpan + 1))
	if rng.Intn(5) == 0 {
		return Interval{Since: since, Until: Inf}
	}
	return Interval{Since: since, Until: since + Timepoint(rng.Intn(modelSpan+1-int(since)))}
}

// TestIntervalAlgebraMatchesBitmapModel checks interval.go against the
// bitmap-over-time model, not against algebraic laws: every operation's
// result must be exactly the canonical list of the model's answer, and
// HoldsAt/Duration must read the model.
func TestIntervalAlgebraMatchesBitmapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rawA, rawB := randModelRaw(rng), randModelRaw(rng)
		a, b := Normalize(rawA), Normalize(rawB)
		ma, mb := bitsOf(rawA...), bitsOf(rawB...)
		win := randModelWindow(rng)
		mw := bitsOf(win)

		fail := func(op string, got, want IntervalList) bool {
			t.Errorf("seed %d: %s = %v, model says %v (a=%v b=%v window=%v)", seed, op, got, want, rawA, rawB, win)
			return false
		}
		if want := ma.list(); !reflect.DeepEqual(a, want) {
			return fail("Normalize(a)", a, want)
		}
		if got, want := Union(a, b), ma.or(mb).list(); !reflect.DeepEqual(got, want) {
			return fail("Union", got, want)
		}
		if got, want := Intersect(a, b), ma.and(mb).list(); !reflect.DeepEqual(got, want) {
			return fail("Intersect", got, want)
		}
		if got, want := Complement(win, a), mw.andNot(ma).list(); !reflect.DeepEqual(got, want) {
			return fail("Complement", got, want)
		}
		// Clip is the intersection with the window, except that an
		// ongoing interval overlapping the window stays ongoing: it is
		// clipped on the left only.
		clipped := ma.and(mw)
		if n := len(a); n > 0 && a[n-1].Open() && bitsOf(a[n-1]).and(mw).list() != nil {
			clipped = clipped.or(bitsOf(a[n-1]).and(bitsOf(Interval{Since: win.Since, Until: Inf})))
		}
		if got, want := Clip(win, a), clipped.list(); !reflect.DeepEqual(got, want) {
			return fail("Clip", got, want)
		}
		for tp := Timepoint(-1); tp <= modelSpan+3; tp++ {
			if a.HoldsAt(tp) != ma.holds(tp) {
				t.Errorf("seed %d: HoldsAt(%d) on %v = %v, model says %v", seed, tp, a, a.HoldsAt(tp), ma.holds(tp))
				return false
			}
		}
		for horizon := Timepoint(-1); horizon <= modelSpan+3; horizon++ {
			var want Timepoint
			for tp := Timepoint(1); tp <= horizon; tp++ {
				if ma.holds(tp) {
					want++
				}
			}
			if got := a.Duration(horizon); got != want {
				t.Errorf("seed %d: Duration(%d) on %v = %d, model says %d", seed, horizon, a, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
