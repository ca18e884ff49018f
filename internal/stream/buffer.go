package stream

import "time"

// TimeBuffer is a time-ordered buffer of items with efficient eviction
// of expired entries, the in-memory structure behind both the mobility
// tracker's per-vessel history and RTEC's working memory. Items must be
// appended in non-decreasing timestamp order relative to evictions;
// within the buffer, small local disorder (delayed messages) is allowed
// and preserved.
type TimeBuffer[T any] struct {
	items []entry[T]
	head  int // index of the first live element
}

type entry[T any] struct {
	t time.Time
	v T
}

// Append adds an item stamped t.
func (b *TimeBuffer[T]) Append(t time.Time, v T) {
	b.items = append(b.items, entry[T]{t: t, v: v})
}

// Len returns the number of live items.
func (b *TimeBuffer[T]) Len() int { return len(b.items) - b.head }

// EvictBefore drops all items with timestamp <= cutoff and returns the
// number evicted. It assumes items are approximately time-ordered:
// eviction scans from the head while timestamps are not after cutoff,
// which matches window semantics where whole prefixes expire. Delayed
// items appended out of order deeper in the buffer expire on a later
// eviction once the scan reaches them.
func (b *TimeBuffer[T]) EvictBefore(cutoff time.Time) int {
	n := 0
	for b.head < len(b.items) && !b.items[b.head].t.After(cutoff) {
		var zero entry[T]
		b.items[b.head] = zero // release references for GC
		b.head++
		n++
	}
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	} else if b.head > 4096 && b.head*2 > len(b.items) {
		// Compact when more than half the backing array is dead.
		live := copy(b.items, b.items[b.head:])
		for i := live; i < len(b.items); i++ {
			var zero entry[T]
			b.items[i] = zero
		}
		b.items = b.items[:live]
		b.head = 0
	}
	return n
}

// At returns the i-th live item (0 = oldest).
func (b *TimeBuffer[T]) At(i int) (time.Time, T) {
	e := b.items[b.head+i]
	return e.t, e.v
}

// Oldest returns the timestamp of the oldest live item and true, or a
// zero time and false when empty. It lets eviction sweeps settle the
// common nothing-expires case with one head peek instead of a scan.
func (b *TimeBuffer[T]) Oldest() (time.Time, bool) {
	if b.Len() == 0 {
		return time.Time{}, false
	}
	return b.items[b.head].t, true
}

// Last returns the newest item and true, or zero values and false when
// empty.
func (b *TimeBuffer[T]) Last() (time.Time, T, bool) {
	if b.Len() == 0 {
		var zero T
		return time.Time{}, zero, false
	}
	e := b.items[len(b.items)-1]
	return e.t, e.v, true
}

// Each calls fn on every live item in order, stopping early if fn
// returns false.
func (b *TimeBuffer[T]) Each(fn func(t time.Time, v T) bool) {
	for i := b.head; i < len(b.items); i++ {
		if !fn(b.items[i].t, b.items[i].v) {
			return
		}
	}
}

// AppendValues appends every live item's value to dst, oldest first,
// and returns the extended slice.
func (b *TimeBuffer[T]) AppendValues(dst []T) []T {
	for i := b.head; i < len(b.items); i++ {
		dst = append(dst, b.items[i].v)
	}
	return dst
}

// Reset discards all items.
func (b *TimeBuffer[T]) Reset() {
	b.items = b.items[:0]
	b.head = 0
}
