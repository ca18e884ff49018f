package supervise

import "slices"

// RetainCadences is the retention cap shared by every self-heal journal,
// in re-base cadences: a target that cannot re-base (it is quarantined)
// keeps at most this many cadences of slides, evicting the oldest.
const RetainCadences = 8

// Journal is one repair target's journal: the state a replay starts
// from plus every input slide since, oldest first. A healthy target
// re-bases once it holds a cadence of slides (Due, Rebase); a
// quarantined one keeps appending until the retention cap, where each
// Append evicts the oldest slide and hands it back so the caller can
// account the gap. Tracker shards, recognizers and the store all keep
// their journals in this type, so they share one retention rule.
type Journal[B, S any] struct {
	Base   B
	Slides []S
	every  int
}

// NewJournal starts a journal at base with a re-base cadence of every
// slides (at least one).
func NewJournal[B, S any](base B, every int) Journal[B, S] {
	return Journal[B, S]{Base: base, every: max(every, 1)}
}

// Append journals one slide. At the retention cap it first evicts the
// oldest slide, which it returns with ok set.
func (j *Journal[B, S]) Append(s S) (evicted S, ok bool) {
	if len(j.Slides) >= RetainCadences*j.every {
		evicted, ok = j.Slides[0], true
		j.Slides = slices.Delete(j.Slides, 0, 1)
	}
	j.Slides = append(j.Slides, s)
	return evicted, ok
}

// Spare returns the slide a re-base dropped from the slot the next
// Append fills, or the zero S when that slot has never held one. That
// slide is no longer part of the journal, so its buffers may be reused
// for the copy about to be appended: a journal keeping copies of its
// input then stops allocating once each slot has held its largest
// slide. Every self-heal journal recycles its slides' buffers this way.
func (j *Journal[B, S]) Spare() S {
	if n := len(j.Slides); n < cap(j.Slides) {
		return j.Slides[:n+1][n]
	}
	var zero S
	return zero
}

// Due reports whether a full cadence of slides has accumulated since
// the base.
func (j *Journal[B, S]) Due() bool { return len(j.Slides) >= j.every }

// Rebase makes base the journal's new starting state and drops the
// slides it covers.
func (j *Journal[B, S]) Rebase(base B) {
	j.Base = base
	j.Slides = j.Slides[:0]
}
