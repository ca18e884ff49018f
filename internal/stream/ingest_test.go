package stream

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/obs"
)

// gridFixes lays perSlide fixes into each of the first slides one-minute
// slide intervals after t0. MMSIs number the fixes 1, 2, 3, … so a test
// can tell exactly which ones it was handed.
func gridFixes(slides, perSlide int) []ais.Fix {
	fixes := make([]ais.Fix, 0, slides*perSlide)
	for i := 0; i < slides; i++ {
		for k := 0; k < perSlide; k++ {
			off := time.Duration(i)*time.Minute + time.Duration(k+1)*time.Second
			fixes = append(fixes, fixAt(uint32(len(fixes)+1), off))
		}
	}
	return fixes
}

// countingSource counts the fixes read off it and signals when the
// consumer has read it to the end.
type countingSource struct {
	*SliceSource
	scanned   atomic.Int64
	exhausted chan struct{}
}

func newCountingSource(fixes []ais.Fix) *countingSource {
	return &countingSource{SliceSource: NewSliceSource(fixes), exhausted: make(chan struct{})}
}

func (s *countingSource) Scan() bool {
	if s.SliceSource.Scan() {
		s.scanned.Add(1)
		return true
	}
	select {
	case <-s.exhausted:
	default:
		close(s.exhausted)
	}
	return false
}

// chanSource yields the fixes sent on ch and ends when it is closed; it
// lets a test decide when the stage sees each fix, and stand in for a
// socket nobody writes to.
type chanSource struct {
	ch  chan ais.Fix
	cur ais.Fix
	err error
}

func (s *chanSource) Scan() bool {
	f, ok := <-s.ch
	s.cur = f
	return ok
}
func (s *chanSource) Fix() ais.Fix { return s.cur }
func (s *chanSource) Err() error   { return s.err }

// waitFor polls cond until it holds; the stage's goroutine offers no
// event to wait on for "blocked", only state to observe.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// drain collects every batch next yields. With a recycle func the fixes are
// copied and the batch handed back through recycle, as a driver does.
func drain(next func() (Batch, bool), recycle func(Batch)) []Batch {
	var out []Batch
	for {
		b, ok := next()
		if !ok {
			return out
		}
		if recycle != nil {
			kept := Batch{Fixes: append([]ais.Fix(nil), b.Fixes...), Query: b.Query}
			recycle(b)
			b = kept
		}
		out = append(out, b)
	}
}

func sameBatches(t *testing.T, got, want []Batch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Query.Equal(want[i].Query) {
			t.Fatalf("batch %d: query %v, want %v", i, got[i].Query, want[i].Query)
		}
		if len(got[i].Fixes) != len(want[i].Fixes) {
			t.Fatalf("batch %d (%v): %d fixes, want %d", i, want[i].Query, len(got[i].Fixes), len(want[i].Fixes))
		}
		for k := range want[i].Fixes {
			if g, w := got[i].Fixes[k], want[i].Fixes[k]; g.MMSI != w.MMSI || !g.Time.Equal(w.Time) || g.Pos != w.Pos {
				t.Fatalf("batch %d fix %d: %v, want %v", i, k, g, w)
			}
		}
	}
}

// randomStream draws a stream with everything the batcher has to cope
// with: bursts inside one slide, gaps of several empty slides, late
// fixes behind the slide already open, and a partial last slide.
func randomStream(rng *rand.Rand) []ais.Fix {
	n := rng.Intn(400)
	fixes := make([]ais.Fix, 0, n)
	at := time.Duration(rng.Intn(90)) * time.Second
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 70:
			at += time.Duration(rng.Intn(5)) * time.Second
		case r < 90:
			at += time.Duration(20+rng.Intn(60)) * time.Second
		default:
			at += time.Duration(2+rng.Intn(5)) * time.Minute // empty slides
		}
		f := fixAt(uint32(i+1), at)
		if rng.Intn(20) == 0 {
			f.Time = f.Time.Add(-time.Duration(rng.Intn(150)) * time.Second) // late
		}
		fixes = append(fixes, f)
	}
	return fixes
}

func TestIngestStageMatchesBatcher(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fixes := randomStream(rng)
		// Resumed runs pin the grid a few slides before the first fix.
		var from time.Time
		if len(fixes) > 0 {
			from = fixes[0].Time.Truncate(time.Minute).Add(-time.Duration(rng.Intn(4)) * time.Minute)
		}
		builders := map[string]func() *Batcher{
			"NewBatcher":     func() *Batcher { return NewBatcher(NewSliceSource(fixes), time.Minute) },
			"NewBatcherFrom": func() *Batcher { return NewBatcherFrom(NewSliceSource(fixes), time.Minute, from) },
		}
		for name, build := range builders {
			want := drain(build().Next, nil)
			for _, capacity := range []int{0, len(fixes) + 1} {
				st := NewIngestStage(build(), capacity)
				got := drain(st.Next, st.Recycle)
				if err := st.Err(); err != nil {
					t.Fatal(err)
				}
				if d := st.Dropped(); d != 0 {
					t.Fatalf("seed %d %s capacity %d: dropped %d fixes", seed, name, capacity, d)
				}
				st.Close()
				sameBatches(t, got, want)
			}
		}
	}
}

// TestIngestStageTryNext drives the stage as the look-ahead slide loop
// does: the slide being processed is held while the next is taken early
// whenever one is ready, and recycled only after. The slides must still
// be the Batcher's, and TryNext must never wait.
func TestIngestStageTryNext(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		fixes := randomStream(rand.New(rand.NewSource(seed)))
		want := drain(NewBatcher(NewSliceSource(fixes), time.Minute).Next, nil)
		for _, capacity := range []int{0, len(fixes) + 1} {
			st := NewIngestStage(NewBatcher(NewSliceSource(fixes), time.Minute), capacity)
			var got, held []Batch
			for {
				if len(held) == 0 {
					b, ok := st.Next()
					if !ok {
						break
					}
					held = append(held, b)
				}
				if b, ok := st.TryNext(); ok {
					held = append(held, b)
				}
				cur := held[0]
				held = held[1:]
				got = append(got, Batch{Fixes: append([]ais.Fix(nil), cur.Fixes...), Query: cur.Query})
				st.Recycle(cur)
			}
			st.Close()
			sameBatches(t, got, want)
		}
	}

	src := &chanSource{ch: make(chan ais.Fix)}
	st := NewIngestStage(NewBatcher(src, time.Minute), 0)
	if b, ok := st.TryNext(); ok {
		t.Fatalf("TryNext on an idle source returned a slide at %v", b.Query)
	}
	close(src.ch)
	st.Close()
}

func TestIngestStageLosslessBackpressure(t *testing.T) {
	const slides, perSlide = 12, 10
	fixes := gridFixes(slides, perSlide)
	fixes = fixes[:len(fixes)-4] // partial last slide
	src := newCountingSource(fixes)
	st := NewIngestStage(NewBatcher(src, time.Minute), 0)
	defer st.Close()

	for taken := 0; ; taken++ {
		// Let ingest run as far ahead as it will before taking a slide:
		// one slide waiting, one finished in the stage's hands, plus the
		// fix that closed it — or the end of the source. Then give it
		// the time to run past that, were it not blocked.
		limit := int64((taken+2)*perSlide + 1)
		waitFor(t, "ingest to block or finish", func() bool {
			select {
			case <-src.exhausted:
				return true
			default:
				return src.scanned.Load() >= limit
			}
		})
		time.Sleep(2 * time.Millisecond)
		if got := src.scanned.Load(); got > limit {
			t.Fatalf("after %d slides taken ingest had read %d fixes, more than one finished slide ahead (limit %d)", taken, got, limit)
		}
		if p := st.Pending(); p != 0 {
			t.Fatalf("lossless mode reports a backlog of %d: a blocked hand-over is backpressure, not backlog", p)
		}
		b, ok := st.Next()
		if !ok {
			if taken != slides {
				t.Fatalf("stream ended after %d slides, want %d", taken, slides)
			}
			break
		}
		want := perSlide
		if taken == slides-1 {
			want = perSlide - 4
		}
		if len(b.Fixes) != want {
			t.Fatalf("slide %d: %d fixes, want %d", taken, len(b.Fixes), want)
		}
		if first := uint32(taken*perSlide + 1); b.Fixes[0].MMSI != first {
			t.Fatalf("slide %d starts at fix %d, want %d", taken, b.Fixes[0].MMSI, first)
		}
	}
	if d := st.Dropped(); d != 0 {
		t.Fatalf("lossless mode dropped %d fixes", d)
	}
}

// retainedFixes sums the capacity of every fix array the stage holds.
func retainedFixes(s *IngestStage) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.ready {
		n += cap(q.fixes)
	}
	for _, f := range s.free {
		n += cap(f)
	}
	return n
}

func TestIngestStageCapacityDropsOldest(t *testing.T) {
	// A long stall: a thousand slide periods with the pipeline absent.
	const slides, perSlide, capacity = 1000, 10, 25
	fixes := gridFixes(slides, perSlide)
	src := newCountingSource(fixes)
	st := NewIngestStage(NewBatcher(src, time.Minute), capacity)
	defer st.Close()

	// Take nothing: ingest must run the whole source without blocking.
	select {
	case <-src.exhausted:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest blocked on an absent consumer")
	}
	// The oldest waiting slide is whole (nothing older waits), the
	// backlog behind it holds the newest `capacity` fixes, and every
	// fix between them was dropped and counted.
	const wantDropped = slides*perSlide - perSlide - capacity
	if d := st.Dropped(); d != wantDropped {
		t.Fatalf("Dropped = %d, want %d", d, wantDropped)
	}
	// What the stall retains is bounded by the capacity, not by its
	// length: the whole oldest slide, the slides the backlog spans and
	// the free list, each array at most doubled by append — and not one
	// dead array per emptied slide.
	const arrays = 1 + (capacity/perSlide + 1) + maxFreeBatches
	if r := retainedFixes(st); r > arrays*2*perSlide {
		t.Fatalf("stalled stage retains arrays for %d fixes over %d slides, want at most %d", r, slides, arrays*2*perSlide)
	}
	got := drain(st.Next, nil)
	if len(got) != slides {
		t.Fatalf("got %d batches, want %d: slides emptied by drops must keep the cadence", len(got), slides)
	}
	var kept []uint32
	for i, b := range got {
		if want := t0.Add(time.Duration(i+1) * time.Minute); !b.Query.Equal(want) {
			t.Fatalf("batch %d query = %v, want %v", i, b.Query, want)
		}
		for _, f := range b.Fixes {
			kept = append(kept, f.MMSI)
		}
		if len(b.Fixes) > 0 && cap(b.Fixes) < perSlide {
			t.Fatalf("batch %d hands Recycle an array of %d fixes: drops off its front must not cost the array its capacity", i, cap(b.Fixes))
		}
	}
	if len(kept) != perSlide+capacity {
		t.Fatalf("kept %d fixes, want %d", len(kept), perSlide+capacity)
	}
	for i, m := range kept {
		want := uint32(i + 1) // the first slide
		if i >= perSlide {
			want = uint32(len(fixes) - capacity + (i - perSlide) + 1) // the newest
		}
		if m != want {
			t.Fatalf("kept fix %d is #%d, want #%d (the oldest pending must be the ones dropped)", i, m, want)
		}
	}
	if st.Dropped() != wantDropped || st.Pending() != 0 {
		t.Fatalf("after draining: dropped %d pending %d", st.Dropped(), st.Pending())
	}
}

func TestIngestStageOversizedSlideIdleConsumer(t *testing.T) {
	// Slides six times the capacity, a consumer that takes each as soon
	// as it closes: nothing is backlog, nothing may be dropped.
	const slides, perSlide, capacity = 8, 48, 8
	fixes := gridFixes(slides, perSlide)
	src := &chanSource{ch: make(chan ais.Fix)}
	st := NewIngestStage(NewBatcher(src, time.Minute), capacity)
	defer st.Close()

	sent := 0
	for i := 0; i < slides; i++ {
		// The slide closes on the first fix of the next one (or the end).
		upto := (i+1)*perSlide + 1
		if i == slides-1 {
			upto = len(fixes)
		}
		for ; sent < upto; sent++ {
			src.ch <- fixes[sent]
		}
		if i == slides-1 {
			close(src.ch)
		}
		b, ok := st.Next()
		if !ok || len(b.Fixes) != perSlide {
			t.Fatalf("slide %d: ok=%v with %d fixes, want %d", i, ok, len(b.Fixes), perSlide)
		}
		if st.Dropped() != 0 || st.Pending() != 0 {
			t.Fatalf("slide %d: dropped %d, pending %d with a consumer that keeps up", i, st.Dropped(), st.Pending())
		}
		st.Recycle(b)
	}
	if _, ok := st.Next(); ok {
		t.Fatal("batch after the end of the stream")
	}
}

func TestIngestStageCloseReleasesBlockedSides(t *testing.T) {
	t.Run("consumer", func(t *testing.T) {
		// Next blocked on a silent source: Close must release it before
		// anything arrives, and return once the source lets go.
		src := &chanSource{ch: make(chan ais.Fix)}
		st := NewIngestStage(NewBatcher(src, time.Minute), 0)
		next := make(chan bool, 1)
		go func() { _, ok := st.Next(); next <- ok }()
		closed := make(chan struct{})
		go func() { st.Close(); close(closed) }()
		select {
		case ok := <-next:
			if ok {
				t.Error("Next returned a batch after Close")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Next still blocked after Close")
		}
		close(src.ch) // the socket is closed
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return: the stage's goroutine is still running")
		}
	})
	for _, capacity := range []int{0, 4} {
		// Ingest blocked handing over (lossless) or long finished
		// (capacity): Close returns with the goroutine gone either way.
		src := newCountingSource(gridFixes(6, 5))
		st := NewIngestStage(NewBatcher(src, time.Minute), capacity)
		if capacity == 0 {
			// One slide waiting, the next finished by the first fix of
			// the third: that is where the lossless stage blocks.
			waitFor(t, "ingest to block", func() bool { return src.scanned.Load() == 2*5+1 })
		}
		closed := make(chan struct{})
		go func() { st.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("capacity %d: Close did not return", capacity)
		}
		if _, ok := st.Next(); ok {
			t.Errorf("capacity %d: Next returned a batch after Close", capacity)
		}
	}
}

func TestIngestStageInterruptDiscardsReadAhead(t *testing.T) {
	const slides, perSlide, processed = 9, 7, 3
	fixes := gridFixes(slides, perSlide)
	want := drain(NewBatcher(NewSliceSource(fixes), time.Minute).Next, nil)

	src := newCountingSource(fixes)
	st := NewIngestStage(NewBatcher(src, time.Minute), 0)
	var done []Batch
	noted := 0
	for i := 0; i < processed; i++ {
		b, ok := st.Next()
		if !ok {
			t.Fatal("stream ended early")
		}
		noted += len(b.Fixes) // what Cursor.Note sees
		done = append(done, b)
	}
	// Interrupt with a finished slide waiting and another in the stage's
	// hands: both are discarded, not handed out piecemeal.
	waitFor(t, "read-ahead", func() bool { return src.scanned.Load() == (processed+2)*perSlide+1 })
	st.Close()
	if b, ok := st.Next(); ok {
		t.Fatalf("Next after the interrupt returned slide %v", b.Query)
	}
	// The restart replays from the cursor on the checkpoint's grid and
	// sees the discarded slides whole.
	resumed := NewIngestStage(NewBatcherFrom(NewSliceSource(fixes[noted:]), time.Minute, done[processed-1].Query), 0)
	defer resumed.Close()
	sameBatches(t, append(done, drain(resumed.Next, nil)...), want)
}

func TestIngestStagePropagatesSourceError(t *testing.T) {
	wantErr := errors.New("wire fell over")
	src := &chanSource{ch: make(chan ais.Fix, 5), err: wantErr}
	for _, f := range gridFixes(1, 5) {
		src.ch <- f
	}
	close(src.ch)
	st := NewIngestStage(NewBatcher(src, time.Minute), 16)
	defer st.Close()
	n := 0
	for _, b := range drain(st.Next, nil) {
		n += len(b.Fixes)
	}
	if n != 5 {
		t.Errorf("delivered %d fixes before the error, want 5", n)
	}
	if !errors.Is(st.Err(), wantErr) {
		t.Errorf("Err() = %v, want %v", st.Err(), wantErr)
	}
}

// TestIngestStageMetricsExport overflows a small stage with no consumer
// attached and checks backlog, drops, capacity and the wait counters
// land in the exposition with the values the accessors report.
func TestIngestStageMetricsExport(t *testing.T) {
	const slides, perSlide, capacity = 5, 4, 6
	src := newCountingSource(gridFixes(slides, perSlide))
	st := NewIngestStage(NewBatcher(src, time.Minute), capacity)
	defer st.Close()
	reg := obs.NewRegistry()
	st.RegisterMetrics(reg)
	<-src.exhausted
	waitFor(t, "the last slide to queue", func() bool { return st.Pending() == capacity })

	scrape := func() string {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	out := scrape()
	for _, want := range []string{
		"maritime_ingest_pending 6",
		"maritime_ingest_dropped_total 10", // 20 − the first slide's 4 − 6 pending
		"maritime_ingest_capacity 6",
		`maritime_pipeline_wait_seconds_total{side="ingest"} 0`,
		`maritime_pipeline_wait_seconds_total{side="pipeline"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// Draining moves the gauge without touching the drop counter, and a
	// pipeline left waiting for a slide shows on its side of the counter.
	drain(st.Next, nil)
	out = scrape()
	if !strings.Contains(out, "maritime_ingest_pending 0") || !strings.Contains(out, "maritime_ingest_dropped_total 10") {
		t.Errorf("gauge did not track the drain:\n%s", out)
	}

	silent := &chanSource{ch: make(chan ais.Fix)}
	st2 := NewIngestStage(NewBatcher(silent, time.Minute), 0)
	reg2 := obs.NewRegistry()
	st2.RegisterMetrics(reg2)
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(silent.ch)
	}()
	st2.Next()
	st2.Close()
	if w := st2.pipelineWait.Load(); w < int64(time.Millisecond) {
		t.Errorf("pipeline waited %dns for a slide that took 5ms to arrive", w)
	}
}

// TestIngestStageAllocs holds the warm stage to a constant number of
// allocations per slide whatever the slide's size: the backing arrays
// handed back through Recycle carry the fixes, nothing is grown anew —
// also for a consumer that holds each slide until it has taken the next,
// as the look-ahead slide loop does.
func TestIngestStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates allocation counts")
	}
	const perSlide = 4096
	for _, mode := range []struct {
		capacity int
		ahead    bool
	}{{0, false}, {8192, false}, {0, true}, {8192, true}} {
		capacity := mode.capacity
		var held Batch
		// The test feeds each slide itself, so that in capacity mode —
		// where nothing else holds ingest back — every slide is taken
		// before the next one closes, as with a pipeline that keeps up.
		src := &chanSource{ch: make(chan ais.Fix, 256)}
		st := NewIngestStage(NewBatcher(src, time.Minute), capacity)
		sent, slide := 0, 0
		step := func() {
			slide++
			for ; sent < slide*perSlide+1; sent++ { // +1: the fix that closes the slide
				i, k := sent/perSlide, sent%perSlide
				src.ch <- fixAt(uint32(k+1), time.Duration(i)*time.Minute+time.Duration(k+1)*time.Millisecond)
			}
			b, ok := st.Next()
			if !ok || len(b.Fixes) != perSlide {
				t.Fatalf("slide of %d fixes, ok=%v", len(b.Fixes), ok)
			}
			if mode.ahead {
				b, held = held, b
			}
			st.Recycle(b)
		}
		for i := 0; i < 4; i++ {
			step()
		}
		avg := testing.AllocsPerRun(32, step)
		t.Logf("capacity %d, ahead %v: %.1f allocations per warm slide of %d fixes", capacity, mode.ahead, avg, perSlide)
		if avg > 2 {
			t.Errorf("capacity %d, ahead %v: %.1f allocations per warm slide, want ≤ 2", capacity, mode.ahead, avg)
		}
		if d := st.Dropped(); d != 0 {
			t.Errorf("capacity %d: dropped %d fixes", capacity, d)
		}
		close(src.ch)
		st.Close()
	}
}
