// Package rtec implements the Event Calculus for Run-Time reasoning
// (RTEC) used by the paper's complex event recognition component (§4):
// linear integer time, fluents with values, maximal-interval
// computation from initiatedAt/terminatedAt rules under the law of
// inertia, built-in start/end events, interval manipulation for
// statically determined fluents, and a windowing semantics with range ω
// and query times Q₁, Q₂, … that forgets movement events older than the
// working memory and tolerates delayed, out-of-order input.
package rtec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Timepoint is an integer timepoint (the timestamps of the movement
// events computed by trajectory detection, in seconds).
type Timepoint = int64

// Inf is the open right endpoint of an ongoing interval.
const Inf Timepoint = math.MaxInt64

// Interval is one maximal interval during which a fluent holds a value
// continuously. Following RTEC semantics, the interval is left-open and
// right-closed: F=V holds at every T with Since < T ≤ Until. A fluent
// initiated at 10 and terminated at 25 holds at all T in (10, 25];
// start(F=V) occurs at 10 and end(F=V) at 25.
type Interval struct {
	Since Timepoint // exclusive: the initiation timepoint
	Until Timepoint // inclusive: the termination timepoint, Inf if ongoing
}

// Open reports whether the interval is ongoing.
func (iv Interval) Open() bool { return iv.Until == Inf }

// Covers reports whether the fluent holds at t under this interval.
func (iv Interval) Covers(t Timepoint) bool { return t > iv.Since && t <= iv.Until }

// String renders the interval.
func (iv Interval) String() string {
	if iv.Open() {
		return fmt.Sprintf("(%d, ∞)", iv.Since)
	}
	return fmt.Sprintf("(%d, %d]", iv.Since, iv.Until)
}

// IntervalList is a list of disjoint, non-adjacent maximal intervals in
// ascending order — the value of holdsFor(F=V, I).
type IntervalList []Interval

// Normalize sorts, merges overlapping or adjacent intervals, and drops
// empty ones, returning a canonical maximal-interval list.
func Normalize(ivs []Interval) IntervalList { return normalize(slices.Clone(ivs)) }

// normalize is Normalize reusing the storage of ivs.
func normalize(ivs []Interval) IntervalList {
	kept := ivs[:0]
	for _, iv := range ivs {
		if iv.Until > iv.Since { // drop empty/negative
			kept = append(kept, iv)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	slices.SortFunc(kept, func(a, b Interval) int {
		if c := cmp.Compare(a.Since, b.Since); c != 0 {
			return c
		}
		return cmp.Compare(a.Until, b.Until)
	})
	out := kept[:1]
	for _, iv := range kept[1:] {
		last := &out[len(out)-1]
		if iv.Since <= last.Until { // overlap or adjacency in (a,b] terms
			if iv.Until > last.Until {
				last.Until = iv.Until
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// HoldsAt reports whether the fluent holds at t.
func (l IntervalList) HoldsAt(t Timepoint) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i].Until >= t })
	return i < len(l) && l[i].Covers(t)
}

// Duration returns the total covered duration; open intervals are
// clipped at the given horizon.
func (l IntervalList) Duration(horizon Timepoint) Timepoint {
	var d Timepoint
	for _, iv := range l {
		until := iv.Until
		if until > horizon {
			until = horizon
		}
		if until > iv.Since {
			d += until - iv.Since
		}
	}
	return d
}

// Union returns the maximal intervals covered by either list — RTEC's
// union_all interval manipulation construct.
func Union(a, b IntervalList) IntervalList {
	merged := make([]Interval, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	return Normalize(merged)
}

// Intersect returns the maximal intervals covered by both lists —
// RTEC's intersect_all construct.
func Intersect(a, b IntervalList) IntervalList {
	var out []Interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Since
		if b[j].Since > lo {
			lo = b[j].Since
		}
		hi := a[i].Until
		if b[j].Until < hi {
			hi = b[j].Until
		}
		if hi > lo {
			out = append(out, Interval{Since: lo, Until: hi})
		}
		if a[i].Until < b[j].Until {
			i++
		} else {
			j++
		}
	}
	return Normalize(out)
}

// Complement returns the maximal sub-intervals of window that are not
// covered by l — RTEC's relative_complement_all against a reference
// interval.
func Complement(window Interval, l IntervalList) IntervalList {
	var out []Interval
	cur := window.Since
	for _, iv := range l {
		if iv.Until <= window.Since {
			continue
		}
		if iv.Since >= window.Until {
			break
		}
		if iv.Since > cur {
			hi := iv.Since
			if hi > window.Until {
				hi = window.Until
			}
			out = append(out, Interval{Since: cur, Until: hi})
		}
		if iv.Until > cur {
			cur = iv.Until
		}
	}
	if cur < window.Until {
		out = append(out, Interval{Since: cur, Until: window.Until})
	}
	return Normalize(out)
}

// Clip restricts the list to the given window interval.
func Clip(window Interval, l IntervalList) IntervalList {
	var out []Interval
	for _, iv := range l {
		lo, hi := iv.Since, iv.Until
		if lo < window.Since {
			lo = window.Since
		}
		if hi > window.Until && !iv.Open() {
			hi = window.Until
		}
		if iv.Open() {
			hi = Inf
			if lo >= window.Until {
				continue
			}
		}
		if hi > lo {
			out = append(out, Interval{Since: lo, Until: hi})
		}
	}
	return Normalize(out)
}
