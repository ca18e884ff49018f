package stream

import (
	"time"

	"repro/internal/ais"
)

// FixSource is any pull-based producer of cleaned positional fixes.
// *ais.Scanner satisfies it, as does SliceSource.
type FixSource interface {
	Scan() bool
	Fix() ais.Fix
	Err() error
}

// SliceSource replays an in-memory slice of fixes.
type SliceSource struct {
	fixes []ais.Fix
	i     int
}

// NewSliceSource wraps the given fixes; the slice is not copied.
func NewSliceSource(fixes []ais.Fix) *SliceSource {
	return &SliceSource{fixes: fixes}
}

// Scan advances to the next fix.
func (s *SliceSource) Scan() bool {
	if s.i >= len(s.fixes) {
		return false
	}
	s.i++
	return true
}

// Fix returns the current fix.
func (s *SliceSource) Fix() ais.Fix { return s.fixes[s.i-1] }

// Err always returns nil.
func (s *SliceSource) Err() error { return nil }

// Reset rewinds the source to the beginning, for repeated replays in
// benchmarks.
func (s *SliceSource) Reset() { s.i = 0 }

// Batch is the chunk of stream admitted during one slide interval
// (Query-β, Query]: the paper simulates streaming "by consuming this
// positional data little by little, reading small chunks periodically
// according to window specifications" (§5).
type Batch struct {
	Fixes []ais.Fix
	Query time.Time // the query time Q_i closing this slide interval
}

// Batcher groups a timestamped fix source into consecutive slide
// intervals. Batch boundaries follow the timestamps of the original
// messages, not wall-clock time, exactly as in the paper's replays.
// Slide intervals with no traffic yield empty batches so that window
// cadence (and gap detection) is preserved.
type Batcher struct {
	src   FixSource
	slide time.Duration
	// pending is a fix already read that belongs to a slide not yet
	// open; it is valid while spilled is set.
	pending ais.Fix
	spilled bool
	// started is set once the first query time is fixed: at
	// construction by NewBatcherFrom, by the first fix otherwise.
	started bool
	done    bool
	query   time.Time // the query time closing the next slide to open
	open    time.Time // the query time closing the slide being filled
}

// NewBatcher wraps src with the given slide step. It panics if slide is
// not positive, which would make the cadence undefined.
func NewBatcher(src FixSource, slide time.Duration) *Batcher {
	if slide <= 0 {
		panic("stream: NewBatcher with non-positive slide")
	}
	return &Batcher{src: src, slide: slide}
}

// NewBatcherFrom wraps src with the first query time pinned to
// start+slide instead of aligned to the first fix. A pipeline resuming
// from a checkpoint taken at query time Q continues on the same slide
// grid: slides between Q and the first replayed fix still yield empty
// batches (preserving gap detection), where a plain NewBatcher would
// re-align to the first fix and silently skip them. start must lie on
// the original run's slide grid. The source is not read until the first
// batch is asked for.
func NewBatcherFrom(src FixSource, slide time.Duration, start time.Time) *Batcher {
	if slide <= 0 {
		panic("stream: NewBatcherFrom with non-positive slide")
	}
	return &Batcher{src: src, slide: slide, query: start.Add(slide), started: true}
}

// begin opens the next slide and returns its query time, or false at
// end of stream. Its fixes are then drawn one by one with more.
func (b *Batcher) begin() (time.Time, bool) {
	if b.done {
		return time.Time{}, false
	}
	if !b.spilled {
		// Only before the first slide: every later slide opens on the
		// fix that closed its predecessor.
		if !b.src.Scan() {
			b.done = true
			return time.Time{}, false
		}
		b.pending, b.spilled = b.src.Fix(), true
		if !b.started {
			// Align the first query time to the slide grid so runs with
			// the same data but different β remain comparable.
			b.query = b.pending.Time.Truncate(b.slide).Add(b.slide)
			b.started = true
		}
	}
	b.open = b.query
	b.query = b.query.Add(b.slide)
	return b.open, true
}

// more returns the next fix of the slide begin opened, or false once
// the slide is complete: the source ended, or the fix just read belongs
// to a later slide (it is kept for that slide; the slides in between
// come out empty). Input is assumed to be in non-decreasing timestamp
// order between batches; a late fix older than the slide's start is
// still delivered in it (delayed arrival, handled downstream by the
// window semantics).
func (b *Batcher) more() (ais.Fix, bool) {
	if b.spilled {
		if b.pending.Time.After(b.open) {
			return ais.Fix{}, false
		}
		b.spilled = false
		return b.pending, true
	}
	if !b.src.Scan() {
		b.done = true
		return ais.Fix{}, false
	}
	f := b.src.Fix()
	if f.Time.After(b.open) {
		b.pending, b.spilled = f, true
		return ais.Fix{}, false
	}
	return f, true
}

// Next returns the next batch and true, or a zero batch and false at
// end of stream. Fixes are assigned to batches by timestamp: a batch
// with query time Q contains fixes with t in (Q-β, Q].
func (b *Batcher) Next() (Batch, bool) {
	q, ok := b.begin()
	if !ok {
		return Batch{}, false
	}
	out := Batch{Query: q}
	for f, ok := b.more(); ok; f, ok = b.more() {
		out.Fixes = append(out.Fixes, f)
	}
	return out, true
}

// CountBatcher groups a fix source into fixed-size chunks of n fixes,
// modelling an inflated arrival rate ρ: with slide β, a chunk of
// n = ρ·β positions arrives per slide regardless of original timestamps
// (the paper's Figure 7 stress test, "admitting bigger chunks of data
// for processing at considerably increased arrival rates").
type CountBatcher struct {
	src   FixSource
	n     int
	slide time.Duration
	query time.Time
	done  bool
}

// NewCountBatcher returns a batcher producing chunks of n fixes. The
// synthetic query times advance by slide per chunk starting at start.
func NewCountBatcher(src FixSource, n int, slide time.Duration, start time.Time) *CountBatcher {
	if n <= 0 {
		panic("stream: NewCountBatcher with non-positive chunk size")
	}
	return &CountBatcher{src: src, n: n, slide: slide, query: start}
}

// Next returns the next chunk of up to n fixes.
func (b *CountBatcher) Next() (Batch, bool) {
	if b.done {
		return Batch{}, false
	}
	out := Batch{Fixes: make([]ais.Fix, 0, b.n)}
	for len(out.Fixes) < b.n && b.src.Scan() {
		out.Fixes = append(out.Fixes, b.src.Fix())
	}
	if len(out.Fixes) == 0 {
		b.done = true
		return Batch{}, false
	}
	b.query = b.query.Add(b.slide)
	out.Query = b.query
	if len(out.Fixes) < b.n {
		b.done = true
	}
	return out, true
}

// Collect drains a fix source into a slice, for tests and offline runs.
func Collect(src FixSource) ([]ais.Fix, error) {
	var out []ais.Fix
	for src.Scan() {
		out = append(out, src.Fix())
	}
	return out, src.Err()
}
