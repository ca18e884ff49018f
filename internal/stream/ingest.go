package stream

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ais"
)

// IngestStage is the ingest side of a live pipeline: it owns the fix
// source and its Batcher on a goroutine of its own and hands the
// pipeline whole slides, so slide k+1 is read and decoded while slide k
// is processed. A pipeline that tracks slide k+1 beside slide k takes
// it early with TryNext, which frees the stage to read slide k+2. How
// far ingest may run ahead is the capacity:
//
//   - capacity 0 is lossless. At most one finished slide waits while the
//     next is being filled; when that one finishes too the stage blocks,
//     stops reading the source, and TCP backpressure reaches the feed.
//   - capacity N > 0 never blocks the source. Finished slides queue up,
//     and once more than N fixes are pending the oldest pending fix is
//     dropped and counted — a slow slide cannot push back onto the wire
//     and turn one stall into a timeout cascade. A fix is pending only
//     while a finished slide older than it waits for the pipeline: the
//     oldest waiting slide and, when none waits, the slide being filled
//     are not backlog however large, so a pipeline that keeps up drops
//     nothing whatever N is. Slides emptied by drops are still
//     delivered, so window cadence survives overload.
//
// One goroutine calls Next, TryNext, Recycle and Err; Pending, Dropped and the
// metrics may be read from any goroutine.
type IngestStage struct {
	batcher  *Batcher
	capacity int

	mu   sync.Mutex
	cond *sync.Cond // signalled on every change of ready, closed, done
	// ready holds the finished slides the pipeline has not taken, oldest
	// first. behind counts the live fixes of ready[1:], the ones queued
	// behind a waiting slide; dropFrom is the lowest index in ready[1:]
	// that may still hold a fix to drop.
	ready    []queuedSlide
	behind   int
	dropFrom int
	// openFixes is the live length of the slide being filled, kept
	// current while anything waits (capacity mode only). The slide itself
	// is private to the stage's goroutine.
	openFixes int
	dropped   int
	free      [][]ais.Fix // recycled backing arrays
	closed    bool
	done      bool // the stage's goroutine has delivered its last slide
	err       error

	// waiting mirrors len(ready) so the per-fix path can tell "nothing
	// waits, nothing to account" without taking mu.
	waiting atomic.Int32

	ingestWait   atomic.Int64 // ns the stage blocked handing a slide over
	pipelineWait atomic.Int64 // ns Next blocked waiting for a slide

	exited chan struct{}
}

// queuedSlide is a finished slide waiting for the pipeline. Drops come
// off its front by moving head, so the slice keeps the whole backing
// array for Recycle; a slide emptied by drops gives its array up at
// once and waits with none.
type queuedSlide struct {
	fixes []ais.Fix
	head  int // fixes[:head] were dropped
	query time.Time
}

func (q *queuedSlide) live() int { return len(q.fixes) - q.head }

// maxFreeBatches bounds the recycled arrays kept: one slide being
// processed, one tracked ahead of it (held until processed, for the
// resume cursor), one waiting and one being filled.
const maxFreeBatches = 4

// NewIngestStage starts reading b on a new goroutine. capacity is in
// fixes; 0 (or less) selects the lossless mode. The caller must not use
// b or its source again, apart from closing the source.
func NewIngestStage(b *Batcher, capacity int) *IngestStage {
	if capacity < 0 {
		capacity = 0
	}
	s := &IngestStage{batcher: b, capacity: capacity, dropFrom: 1, exited: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// run fills one slide after another until the source ends or the stage
// is closed.
func (s *IngestStage) run() {
	defer close(s.exited)
	for {
		q, ok := s.batcher.begin()
		if !ok {
			break
		}
		fixes := s.takeFree()
		head := 0 // fixes dropped off the front of the open slide
		for f, ok := s.batcher.more(); ok; f, ok = s.batcher.more() {
			fixes = append(fixes, f)
			if s.capacity > 0 && s.waiting.Load() > 0 {
				head += s.shed(len(fixes) - head)
			}
		}
		if !s.handOver(queuedSlide{fixes: fixes, head: head, query: q}) {
			break
		}
	}
	s.mu.Lock()
	s.done = true
	s.err = s.batcher.src.Err()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// shed accounts the open slide's length while finished slides wait and
// drops the oldest pending fixes beyond the capacity. It returns how
// many of them came off the front of the open slide itself.
func (s *IngestStage) shed(open int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ready) == 0 {
		// The pipeline caught up since the unlocked check.
		return 0
	}
	s.openFixes = open
	fromOpen := 0
	for s.behind+s.openFixes > s.capacity {
		s.dropped++
		if s.behind == 0 {
			s.openFixes--
			fromOpen++
			continue
		}
		for s.ready[s.dropFrom].live() == 0 {
			s.dropFrom++
		}
		q := &s.ready[s.dropFrom]
		q.head++
		s.behind--
		if q.live() == 0 {
			s.release(q)
		}
	}
	return fromOpen
}

// release takes the backing array off a slide that drops emptied, so a
// long stall retains the capacity's worth of fixes and not one dead
// array per slide period. The slide stays queued: cadence survives.
func (s *IngestStage) release(q *queuedSlide) {
	if len(s.free) < maxFreeBatches && cap(q.fixes) > 0 {
		s.free = append(s.free, q.fixes[:0])
	}
	q.fixes, q.head = nil, 0
}

// handOver queues a finished slide for the pipeline. In the lossless
// mode it first waits until the previous finished slide has been taken.
// It returns false when the stage was closed instead.
func (s *IngestStage) handOver(q queuedSlide) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity == 0 && len(s.ready) > 0 && !s.closed {
		t := time.Now()
		for len(s.ready) > 0 && !s.closed {
			s.cond.Wait()
		}
		s.ingestWait.Add(int64(time.Since(t)))
	}
	if s.closed {
		return false
	}
	if q.head > 0 && q.live() == 0 {
		s.release(&q)
	}
	if len(s.ready) > 0 {
		s.behind += q.live()
	}
	s.ready = append(s.ready, q)
	s.openFixes = 0
	s.waiting.Store(int32(len(s.ready)))
	s.cond.Broadcast()
	return true
}

// takeFree returns an empty slice over a recycled backing array, or nil.
func (s *IngestStage) takeFree() []ais.Fix {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return nil
	}
	f := s.free[n-1]
	s.free = s.free[:n-1]
	return f
}

// Next returns the oldest finished slide, blocking until one is ready.
// It returns false once the source has ended and every slide — the last,
// partial one included — has been delivered, or after Close. The batches
// are those Batcher.Next would have produced over the same source, minus
// any fixes dropped in capacity mode.
func (s *IngestStage) Next() (Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ready) == 0 && !s.done && !s.closed {
		t := time.Now()
		for len(s.ready) == 0 && !s.done && !s.closed {
			s.cond.Wait()
		}
		s.pipelineWait.Add(int64(time.Since(t)))
	}
	return s.pop()
}

// TryNext is Next without the wait: it returns the oldest finished slide
// if one is ready now, and false otherwise — also when the source has
// not ended, so false means "call Next", not "done".
func (s *IngestStage) TryNext() (Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pop()
}

// pop takes the oldest finished slide off the queue. Callers hold mu.
func (s *IngestStage) pop() (Batch, bool) {
	if s.closed || len(s.ready) == 0 {
		return Batch{}, false
	}
	q := s.ready[0]
	n := copy(s.ready, s.ready[1:])
	s.ready[n] = queuedSlide{}
	s.ready = s.ready[:n]
	if n > 0 {
		// The new head of the queue is no longer behind anything.
		s.behind -= s.ready[0].live()
	}
	s.dropFrom = max(s.dropFrom-1, 1)
	s.waiting.Store(int32(n))
	s.cond.Broadcast()
	if q.head > 0 {
		// Close the gap the drops left, so the batch starts at its
		// array's first element and Recycle gets the whole array back.
		q.fixes = q.fixes[:copy(q.fixes, q.fixes[q.head:])]
	}
	return Batch{Fixes: q.fixes, Query: q.query}, true
}

// Recycle hands a batch's backing array back for a later slide. Call it
// once nothing reads b.Fixes any more; a driver that keeps its batches
// simply never calls it.
func (s *IngestStage) Recycle(b Batch) {
	if cap(b.Fixes) == 0 {
		return
	}
	s.mu.Lock()
	if len(s.free) < maxFreeBatches {
		s.free = append(s.free, b.Fixes[:0])
	}
	s.mu.Unlock()
}

// Err returns the source's terminal error once Next has returned false.
func (s *IngestStage) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Dropped returns how many fixes were discarded by overflow; always 0 in
// the lossless mode.
func (s *IngestStage) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Pending returns the ingest backlog in fixes: those read while a
// finished slide older than them waits for the pipeline. With a pipeline
// that takes each slide before the next one closes it reads 0. In the
// lossless mode it is always 0: a blocked hand-over is backpressure onto
// the source, not a backlog that grows (the ingest side's wait counter
// reports it), and a replay that outruns the pipeline blocks on every
// slide without being overloaded.
func (s *IngestStage) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity == 0 || len(s.ready) == 0 {
		return 0
	}
	return s.behind + s.openFixes
}

// Close releases a blocked Next and a blocked hand-over, discards the
// slides read ahead, and returns once the stage's goroutine has exited.
// It does not close the source: a source that can block in Scan (a
// socket) must be closed or interrupted first, or Close waits for its
// next fix.
func (s *IngestStage) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.exited
}

// Reopen starts a closed stage over b — the same source rewound, after
// a restore — keeping its capacity, counters and recycled arrays. The
// slides read ahead before Close are gone.
func (s *IngestStage) Reopen(b *Batcher) {
	s.mu.Lock()
	for i := range s.ready {
		s.release(&s.ready[i])
	}
	s.batcher = b
	s.ready, s.behind, s.dropFrom, s.openFixes = s.ready[:0], 0, 1, 0
	s.closed, s.done, s.err = false, false, nil
	s.waiting.Store(0)
	s.exited = make(chan struct{})
	s.mu.Unlock()
	go s.run()
}
