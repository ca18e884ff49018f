package tracker

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/supervise"
)

// ShardOf returns the shard owning the given MMSI out of n shards. The
// MMSI is mixed through a finalizer-style integer hash (fmix32) so that
// the mostly-sequential MMSI blocks real registries and the fleet
// simulator assign spread evenly instead of landing on a few shards.
func ShardOf(mmsi uint32, n int) int {
	if n <= 1 {
		return 0
	}
	h := mmsi
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return int(h % uint32(n))
}

// Sharded is the online mobility tracker: it consumes the positional
// stream slide by slide, maintains per-vessel motion state entirely in
// main memory without index support (paper §2), and emits annotated
// critical points. Detection of instantaneous events and gaps is O(1)
// per incoming tuple; long-lasting events cost O(m) over the m most
// recent positions (paper §3.1).
//
// Trajectory detection is independent per vessel (§5.2), so the state
// is split across n shards keyed by MMSI hash. Every slide takes one
// path: route the batch to the shards, run them, and merge their
// results so that the output is exactly the critical-point stream of one shard holding
// every vessel (fresh points in triggering-fix order, then slide-time
// gap points in MMSI order; delta points sorted by time then MMSI).
// Slide runs shard 0 on the calling goroutine and the rest on a
// persistent worker pool; under the watchdog every shard runs pooled so
// the caller can abandon a wedged one. Output is byte-identical across
// shard counts; one shard is the serial tracker.
//
// A slide is started, then finished: started, it is routed and every
// shard is handed its job; finished, the shards are collected,
// stragglers and panicked shards quarantined (see faults.go) and the
// results merged. Roll finishes the slide in flight and starts the next
// in one call: it routes the next batch, then collects the slide in
// flight and hands each shard its share of the next slide as soon as
// that shard's result is in, so the shards roll from one slide into the
// next while the finished slide is merged and the caller processes it.
// Slide starts a slide and finishes it. Between calls at most one slide
// is in flight: every read and restore of the tier's state (Stats,
// Infos, Snapshot, RestoreSnapshot, ...) first finishes it, on the
// calling goroutine, and keeps its result for the next Roll.
//
// The SlideResult returned by Slide and Roll aliases tier-owned
// scratch: Fresh and Delta are valid until the slide after next starts,
// so a slide's result survives while the next one is tracked. Callers
// that retain them longer must copy.
type Sharded struct {
	params Params
	window stream.WindowSpec
	shards []*shard
	pool   *shardPool // started by the first pooled slide
	// mu serializes the slide steps with the reads and repairs other
	// goroutines make. A started slide is in flight until a roll
	// finishes it, under mu whoever calls it; its result waits in result
	// until Roll takes it.
	mu       sync.Mutex
	flight   flight
	result   SlideResult
	resultAt time.Time

	// Slide-scoped scratch, reused across slides and double-buffered: a
	// rolled slide is routed and dispatched into one set while the slide
	// in flight is still collected and merged from the other. last is
	// the set of the slide started last.
	bufs  [2]slideBufs
	last  int
	heads []int
	// The merged output, double-buffered like the shards' own scratch:
	// merge writes one pair and swaps it with the spare.
	fresh, spareFresh []CriticalPoint
	delta, spareDelta []CriticalPoint

	metrics *shardMetrics

	// Fault isolation (see faults.go): each shard's down-state, the
	// slide watchdog, the chaos hook, and the quarantine records and
	// lost fixes of the slide being finished.
	down       []uint8
	timeout    time.Duration
	watch      *time.Timer // the slide watchdog's timer, reused across slides
	faultHook  atomic.Pointer[func(shard int, q time.Time)]
	faults     []supervise.Quarantine
	faultFixes int

	// Fault counters, atomics so Health and metric scrapes may read
	// them from other goroutines mid-slide.
	panics      atomic.Int64
	stalls      atomic.Int64
	quarCount   atomic.Int64
	failedCount atomic.Int64
	dropped     atomic.Int64

	// Tier-wide ingest accounting shared by all shards (see shard).
	lateAcc  atomic.Int64
	lateDrop atomic.Int64
	shedCnt  atomic.Int64
	shedOn   atomic.Bool

	closeOnce sync.Once
}

// flight is a started slide: its query time, its scratch set in bufs,
// how many of its shards are on the pool to be collected, and what it
// was started with.
type flight struct {
	on       bool
	query    time.Time
	buf      int
	pooled   int
	watchdog bool
	hook     *func(shard int, q time.Time)
}

// slideBufs is one slide's scratch: each shard's routed input and
// result slot, the pooled shards' fan-in, and per shard whether it was
// handed its job, whether its result is in, and whether it is left out
// of the merge. A shard abandoned by the watchdog keeps its input and
// the result slot and fan-in it was given: abandoned makes the next
// slide on this set start on new ones, so a late write from the wedged
// goroutine never lands in a live slide.
type slideBufs struct {
	in        []shardIn
	outs      []shardOut
	done      chan int
	abandoned bool
	launched  []bool
	completed []bool
	skip      []bool
}

func newSlideBufs(n int) slideBufs {
	return slideBufs{
		in:        make([]shardIn, n),
		outs:      make([]shardOut, n),
		done:      make(chan int, n),
		launched:  make([]bool, n),
		completed: make([]bool, n),
		skip:      make([]bool, n),
	}
}

// shardIn is one shard's routed input for a slide: its fixes and
// whether overload shedding is on for the slide.
type shardIn struct {
	recs []fixRec
	shed bool
}

// fixRec is one routed fix in the form a shard ingests: the scalars
// ingest reads and the fix's index in the whole batch (which the merge
// orders emissions by). It is pointer-free and 32 bytes, so the routed
// slide is memory the collector never scans.
type fixRec struct {
	mmsi     uint32
	idx      int32
	lon, lat float64
	ns       int64
}

// shardOut is one shard's slide outcome. fresh, freshIdx and delta
// alias the shard's double-buffered scratch, so they stay intact while
// the shard runs the next slide: the merge reads a slide only from its
// result slots.
type shardOut struct {
	fresh    []CriticalPoint // ingest-time points, then gap-sweep points from gapStart on
	freshIdx []int32         // batch index of each ingest-time point's fix
	gapStart int
	delta    []CriticalPoint
	dur      time.Duration
	end      time.Time             // when the shard finished the slide
	panic    *supervise.Quarantine // set when the job panicked
}

// shardJob is one shard's slide. It carries everything the run needs so
// that pool workers never reference the Sharded tier itself (which lets
// an abandoned tier be finalized and its pool reclaimed).
type shardJob struct {
	tr   *shard
	in   shardIn
	q    time.Time
	out  *shardOut
	done chan<- int // nil when the job runs on the caller
	i    int
	hook *func(shard int, q time.Time) // chaos injection, nil when none
}

// shardPool is a fixed set of long-lived workers fed over one shared
// job queue. It is deliberately free of any back-reference to Sharded.
type shardPool struct {
	jobs chan shardJob
	stop chan struct{}
}

func newShardPool(workers int) *shardPool {
	p := &shardPool{
		jobs: make(chan shardJob, workers),
		stop: make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *shardPool) worker() {
	for {
		select {
		case j := <-p.jobs:
			runShard(j)
			// The result just sent made the collector runnable next on
			// this worker's P, but it runs only once the worker lets go
			// of the P. With more jobs queued — a slide rolled in — the
			// worker would take one without blocking and keep the
			// collector, which hands out the jobs and merges the slide,
			// off the CPU until the queue drains. Yield instead.
			runtime.Gosched()
		case <-p.stop:
			return
		}
	}
}

// addWorker grows the pool by one worker, replacing one lost inside a
// wedged shard.
func (p *shardPool) addWorker() { go p.worker() }

// runShard advances one shard through a slide and publishes its result.
// A panic — the shard's own state machine or an injected fault — is
// converted into a quarantine record on its out slot instead of
// unwinding.
func runShard(j shardJob) {
	defer func() {
		if r := recover(); r != nil {
			q := supervise.Panicked(shardTarget(j.i), r)
			j.out.panic = &q
			if j.done != nil {
				j.done <- j.i
			}
		}
	}()
	start := time.Now()
	if j.hook != nil {
		(*j.hook)(j.i, j.q)
	}
	out := j.tr.slide(j.in, j.q)
	out.end = time.Now()
	out.dur = out.end.Sub(start)
	*j.out = out
	if j.done != nil {
		j.done <- j.i
	}
}

// NewSharded returns a tracking tier with the given number of shards
// (values below 1 are clamped to 1; 1 is the serial tracker). All shards
// share the same parameters and window. It panics on invalid
// configuration, which is a programming error.
func NewSharded(params Params, window stream.WindowSpec, shards int) *Sharded {
	if err := params.Validate(); err != nil {
		panic(fmt.Sprintf("tracker: %v", err))
	}
	if err := window.Validate(); err != nil {
		panic(fmt.Sprintf("tracker: %v", err))
	}
	shards = max(shards, 1)
	s := &Sharded{
		params: params,
		window: window,
		shards: make([]*shard, shards),
		bufs:   [2]slideBufs{newSlideBufs(shards), newSlideBufs(shards)},
		heads:  make([]int, shards),
		down:   make([]uint8, shards),
	}
	for i := range s.shards {
		s.shards[i] = s.newShard()
		s.wireShared(s.shards[i])
	}
	return s
}

// newShard returns an empty shard of this tier, not yet wired to the
// tier-wide accounting.
func (s *Sharded) newShard() *shard {
	return &shard{
		params: s.params,
		window: s.window,
		index:  make(map[uint32]int32),
	}
}

// DefaultShards is the shard count used when a configuration leaves it
// zero: four shards per available CPU. With the next slide tracked
// beside the pipeline's work on the current one, the shards share the
// cores with recognition and ingest, and smaller shards balance better
// across whatever cores are free; a sweep over 1×, 2× and 4× per CPU
// on the end-to-end benchmark picked 4× (EXPERIMENTS.md, "Two slides in
// flight").
func DefaultShards() int { return 4 * runtime.GOMAXPROCS(0) }

// workers returns the tier's pool, starting it on first use with one
// worker per shard — enough for the watchdog, which pools every shard.
func (s *Sharded) workers() *shardPool {
	if s.pool == nil {
		s.pool = newShardPool(len(s.shards))
		// Reclaim the pool goroutines if the tier is dropped without an
		// explicit Close (benchmarks, tests, short-lived drivers). The
		// workers reference only the pool's channels, never s, so an
		// unreachable tier does get finalized.
		runtime.SetFinalizer(s, (*Sharded).Close)
	}
	return s.pool
}

// Close finishes the slide in flight, if any, and stops the worker
// pool. Closing is idempotent; a closed tier must not slide again.
func (s *Sharded) Close() {
	s.mu.Lock()
	s.roll(nil, true)
	s.mu.Unlock()
	s.closeOnce.Do(func() {
		if s.pool != nil {
			close(s.pool.stop)
		}
		runtime.SetFinalizer(s, nil)
	})
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// wireShared points a shard at the tier-wide accounting atomics.
func (s *Sharded) wireShared(tr *shard) {
	tr.lateAcc = &s.lateAcc
	tr.lateDrop = &s.lateDrop
	tr.shedCnt = &s.shedCnt
}

// SetShedStationary toggles overload shedding from the next slide
// started on: while on, fixes from long-stopped vessels only advance
// the vessel clock (see shard ingest). A slide already started keeps
// the setting it was routed with. Safe to call from any goroutine.
func (s *Sharded) SetShedStationary(on bool) { s.shedOn.Store(on) }

// LateFixes returns the tier-wide count of late fixes accepted
// (timestamp behind the last query but still sequenced) and dropped
// (behind their vessel's clock). Safe to call from any goroutine.
func (s *Sharded) LateFixes() (accepted, dropped int64) {
	return s.lateAcc.Load(), s.lateDrop.Load()
}

// ShedFixes returns the tier-wide count of fixes shed under overload
// degradation. Safe to call from any goroutine.
func (s *Sharded) ShedFixes() int64 { return s.shedCnt.Load() }

// Slide processes one batch: it updates the window with fresh
// positions, detects trajectory events, performs slide-time gap
// detection, and evicts expired critical points and stale vessels. It
// starts the slide and finishes it, with shard 0 on the calling
// goroutine unless the watchdog is armed. The returned Fresh and Delta
// slices are tier-owned scratch, valid until the slide after next
// starts.
func (s *Sharded) Slide(b stream.Batch) SlideResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roll(&b, false)
	s.roll(nil, false)
	return s.take()
}

// Roll finishes the slide in flight, if any, and starts the slide over
// next, if non-nil, beside it, every shard on the worker pool: next is
// routed first, then each shard is handed its share of next the moment
// its result for the slide in flight arrives, and the finished slide is
// merged while they run. A shard that panicked or stalled in the slide
// in flight is quarantined and never handed next; its fixes of next are
// counted dropped, as for any shard out of service.
//
// Roll returns the finished slide's result — collected under the slide
// watchdog when armed; with no slide in flight, the result a reader
// kept, if any, else a zero one — and when its last shard finished
// (stragglers: when the watchdog gave up on them), and when Roll began
// collecting, after routing next.
func (s *Sharded) Roll(next *stream.Batch) (res SlideResult, done, collecting time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	collecting = s.roll(next, true)
	done = s.resultAt
	return s.take(), done, collecting
}

// take hands the kept result out once.
func (s *Sharded) take() SlideResult {
	res := s.result
	s.result, s.resultAt = SlideResult{}, time.Time{}
	return res
}

// roll is every slide step: route next, if any, into the scratch set
// the slide in flight does not use; collect the slide in flight, if
// any, handing each shard its next job as its result arrives; finish
// that slide and keep its result; then hand out the rest of next —
// every shard when nothing was in flight, on the pool when pooled or
// under the watchdog, else shard 0 here. It returns when next was
// routed. Callers hold mu.
func (s *Sharded) roll(next *stream.Batch, pooled bool) time.Time {
	f := s.flight
	s.flight = flight{}
	var nf flight
	if next != nil {
		nf = s.prepare(*next)
	}
	routed := time.Now()
	if f.on {
		s.collect(f, &nf)
		s.finish(f)
	}
	if nf.on {
		s.launch(&nf, pooled)
		s.flight = nf
	}
	return routed
}

// prepare routes b into the next scratch set and returns its slide, not
// yet handed to any shard.
func (s *Sharded) prepare(b stream.Batch) flight {
	s.last = 1 - s.last
	bf := &s.bufs[s.last]
	if bf.abandoned {
		n := len(s.shards)
		bf.outs, bf.done, bf.abandoned = make([]shardOut, n), make(chan int, n), false
	}
	s.route(b, bf.in)
	clear(bf.launched)
	clear(bf.completed)
	clear(bf.skip)
	return flight{on: true, query: b.Query, buf: s.last, watchdog: s.timeout > 0, hook: s.faultHook.Load()}
}

// launch hands every shard of nf not yet handed its job to the pool —
// or, for shard 0 when neither pooled nor under the watchdog, runs it
// here — and leaves out shards out of service, counting their fixes
// dropped.
func (s *Sharded) launch(nf *flight, pooled bool) {
	bf := &s.bufs[nf.buf]
	inline := !pooled && !nf.watchdog && !bf.launched[0]
	for i := range s.shards {
		switch {
		case bf.launched[i]:
		case s.outOfService(i):
			bf.skip[i] = true
			s.dropped.Add(int64(len(bf.in[i].recs)))
		case i == 0 && inline: // runs last, here
		default:
			s.dispatch(nf, i)
		}
	}
	if inline && !bf.skip[0] {
		bf.launched[0] = true
		runShard(s.job(nf, 0, nil))
		s.shardDone(bf, 0)
	}
}

// dispatch hands shard i its job of nf on the pool.
func (s *Sharded) dispatch(nf *flight, i int) {
	bf := &s.bufs[nf.buf]
	bf.launched[i] = true
	s.workers().jobs <- s.job(nf, i, bf.done)
	nf.pooled++
}

// finish ends slide f once collected: quarantine stragglers and
// panicked shards, and merge. The result is kept for take.
func (s *Sharded) finish(f flight) {
	bf := &s.bufs[f.buf]
	var doneAt time.Time
	s.faults, s.faultFixes = nil, 0

	// Stragglers: quarantine them and replace their pool workers, which
	// are stuck inside runShard on the now-abandoned shard.
	for i := range s.shards {
		if !bf.skip[i] && !bf.completed[i] {
			doneAt = time.Now()
			s.stalls.Add(1)
			s.quarantineShard(bf, i, supervise.Stalled(shardTarget(i)))
			s.pool.addWorker()
			bf.abandoned = true
		}
	}
	for i := range s.shards {
		if !bf.skip[i] && bf.outs[i].panic != nil {
			s.panics.Add(1)
			s.quarantineShard(bf, i, *bf.outs[i].panic)
		}
	}

	mergeStart := time.Now()
	fresh, delta := s.merge(bf)
	if m := s.metrics; m != nil {
		m.mergeQueue.Set(0)
		for i := range s.shards {
			if !bf.skip[i] {
				m.shardDur[i].ObserveDuration(bf.outs[i].dur)
				m.shardFixes[i].Add(uint64(len(bf.in[i].recs)))
			}
		}
		m.mergeDur.ObserveDuration(time.Since(mergeStart))
	}
	for i := range s.shards {
		if !bf.skip[i] && bf.outs[i].end.After(doneAt) {
			doneAt = bf.outs[i].end
		}
	}
	s.result = SlideResult{Query: f.query, Fresh: fresh, Delta: delta, Faults: s.faults, LostFixes: s.faultFixes}
	s.resultAt = doneAt
}

// job builds shard i's job of slide f.
func (s *Sharded) job(f *flight, i int, done chan<- int) shardJob {
	bf := &s.bufs[f.buf]
	return shardJob{tr: s.shards[i], in: bf.in[i], q: f.query, out: &bf.outs[i], done: done, i: i, hook: f.hook}
}

// shardDone marks shard i's result as arrived.
func (s *Sharded) shardDone(bf *slideBufs, i int) {
	bf.completed[i] = true
	if s.metrics != nil {
		s.metrics.mergeQueue.Add(1)
	}
}

// arrive takes shard i's result of slide f and, when a next slide nf is
// being rolled in and the shard did not panic, hands it its next job.
func (s *Sharded) arrive(f flight, nf *flight, i int) {
	bf := &s.bufs[f.buf]
	s.shardDone(bf, i)
	if nf.on && bf.outs[i].panic == nil {
		s.dispatch(nf, i)
	}
}

// collect waits for slide f's pooled shards, under the slide watchdog
// when armed. Results that beat the deadline but raced the timer are
// drained before the rest are left as stragglers.
func (s *Sharded) collect(f flight, nf *flight) {
	var expire <-chan time.Time
	if f.watchdog {
		if s.watch == nil {
			s.watch = time.NewTimer(s.timeout)
		} else {
			s.watch.Reset(s.timeout)
		}
		expire = s.watch.C
		defer func() {
			// A tick that fired but was not consumed here must not expire
			// the next slide.
			if !s.watch.Stop() {
				select {
				case <-s.watch.C:
				default:
				}
			}
		}()
	}
	done := s.bufs[f.buf].done
	for got := 0; got < f.pooled; got++ {
		select {
		case i := <-done:
			s.arrive(f, nf, i)
		case <-expire:
			for ; got < f.pooled; got++ {
				select {
				case i := <-done:
					s.arrive(f, nf, i)
				default:
					return
				}
			}
			return
		}
	}
}

// route splits the batch into the per-shard input buffers in (reused
// across slides): each fix goes, as a fixRec tagged with its batch
// index, to the shard owning its vessel. Every shard reads its own
// copy, never the caller's batch, so a shard the watchdog abandons
// cannot read a batch the caller has recycled.
func (s *Sharded) route(b stream.Batch, in []shardIn) {
	n := len(s.shards)
	shed := s.shedOn.Load()
	for i := range in {
		in[i].recs = in[i].recs[:0]
		in[i].shed = shed
	}
	for i, f := range b.Fixes {
		sh := ShardOf(f.MMSI, n)
		in[sh].recs = append(in[sh].recs, fixRec{
			mmsi: f.MMSI, idx: int32(i), lon: f.Pos.Lon, lat: f.Pos.Lat, ns: f.Time.UnixNano(),
		})
	}
}

// merge recombines the per-shard slide outputs in bf's result slots into
// the exact serial emission order:
//
//   - ingest-time points, k-way merged on the batch index of their
//     triggering fix (each index lives in exactly one shard, so the
//     interleaving is unique);
//   - slide-time gap-sweep points, k-way merged on MMSI (each shard's
//     sweep is MMSI-sorted and the MMSI sets are disjoint);
//   - delta points, k-way merged on (time, MMSI) — the same key a shard
//     stable-sorts by, with cross-shard ties impossible because equal
//     keys imply equal MMSIs.
//
// A lone shard's output is already in that order and is returned as is.
func (s *Sharded) merge(bf *slideBufs) (fresh, delta []CriticalPoint) {
	n := len(s.shards)
	outs, skip := bf.outs, bf.skip
	if n == 1 {
		if skip[0] {
			return nil, nil
		}
		return outs[0].fresh, outs[0].delta
	}
	s.fresh, s.spareFresh = s.spareFresh[:0], s.fresh
	s.delta, s.spareDelta = s.spareDelta[:0], s.delta

	// Ingest segment, by triggering-fix index.
	for i := 0; i < n; i++ {
		s.heads[i] = 0
	}
	for {
		best := -1
		var bestIdx int32
		for i := 0; i < n; i++ {
			h := s.heads[i]
			if skip[i] || h >= outs[i].gapStart {
				continue
			}
			if idx := outs[i].freshIdx[h]; best == -1 || idx < bestIdx {
				best, bestIdx = i, idx
			}
		}
		if best == -1 {
			break
		}
		s.fresh = append(s.fresh, outs[best].fresh[s.heads[best]])
		s.heads[best]++
	}

	// Gap-sweep segment, by MMSI.
	for {
		best := -1
		var bestMMSI uint32
		for i := 0; i < n; i++ {
			h := s.heads[i]
			if skip[i] || h >= len(outs[i].fresh) {
				continue
			}
			if m := outs[i].fresh[h].MMSI; best == -1 || m < bestMMSI {
				best, bestMMSI = i, m
			}
		}
		if best == -1 {
			break
		}
		s.fresh = append(s.fresh, outs[best].fresh[s.heads[best]])
		s.heads[best]++
	}

	// Delta stream, by (time, MMSI).
	for i := 0; i < n; i++ {
		s.heads[i] = 0
	}
	for {
		best := -1
		for i := 0; i < n; i++ {
			h := s.heads[i]
			if skip[i] || h >= len(outs[i].delta) {
				continue
			}
			if best == -1 || compareDelta(&outs[i].delta[h], &outs[best].delta[s.heads[best]]) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		s.delta = append(s.delta, outs[best].delta[s.heads[best]])
		s.heads[best]++
	}
	return s.fresh, s.delta
}

// outOfService reports whether a shard is quarantined or failed. Such a
// shard may still be mutated by a wedged goroutine, so every read path
// must skip it until a restore swaps in a fresh one.
func (s *Sharded) outOfService(i int) bool { return s.down[i] != shardUp }

// settle finishes the slide in flight, if any, and returns with mu
// held: every read of the tier's state goes through it.
func (s *Sharded) settle() {
	s.mu.Lock()
	s.roll(nil, true)
}

// Stats returns the merged counter snapshot across all shards.
// Quarantined shards are excluded (they are unsafe to read); their
// counters reappear once a restore rebuilds them.
func (s *Sharded) Stats() Stats {
	s.settle()
	defer s.mu.Unlock()
	return s.stats()
}

// stats merges the shards' counters, building ByType from their
// per-type arrays with an entry for every type emitted at least once.
func (s *Sharded) stats() Stats {
	var byType [numEventTypes]int
	out := Stats{ByType: make(map[EventType]int)}
	for i, sh := range s.shards {
		if s.outOfService(i) {
			continue
		}
		out.FixesIn += sh.stats.FixesIn
		out.Duplicates += sh.stats.Duplicates
		out.Outliers += sh.stats.Outliers
		out.Critical += sh.stats.Critical
		out.LateAccepted += sh.stats.LateAccepted
		out.LateDropped += sh.stats.LateDropped
		out.Shed += sh.stats.Shed
		for k, v := range sh.byType {
			byType[k] += v
		}
	}
	for k, v := range byType {
		if v != 0 {
			out.ByType[EventType(k)] = v
		}
	}
	return out
}

// VesselCount returns the number of vessels with live state across all
// shards.
func (s *Sharded) VesselCount() int {
	s.settle()
	defer s.mu.Unlock()
	return s.vesselCount()
}

func (s *Sharded) vesselCount() int {
	n := 0
	for i, sh := range s.shards {
		if !s.outOfService(i) {
			n += len(sh.index)
		}
	}
	return n
}

// vessel returns one vessel's live state, or nil when it has none or
// its shard is out of service. Callers hold mu.
func (s *Sharded) vessel(mmsi uint32) *vesselState {
	i := ShardOf(mmsi, len(s.shards))
	if s.outOfService(i) {
		return nil
	}
	sh := s.shards[i]
	slot, ok := sh.index[mmsi]
	if !ok {
		return nil
	}
	return &sh.slots[slot]
}

// Odometer returns a vessel's traveled distance in meters: the total
// over its tracked history and the distance since it last departed
// (since its last long-term stop ended). Across communication gaps the
// straight-line chord is counted, as the course in between is unknown.
// ok is false for vessels without live state.
func (s *Sharded) Odometer(mmsi uint32) (totalM, sinceDepartureM float64, ok bool) {
	s.settle()
	defer s.mu.Unlock()
	st := s.vessel(mmsi)
	if st == nil {
		return 0, 0, false
	}
	return st.odometerM, st.departureM, true
}

// Synopsis returns the critical points currently retained in the window
// for the given vessel, oldest first.
func (s *Sharded) Synopsis(mmsi uint32) []CriticalPoint {
	s.settle()
	defer s.mu.Unlock()
	st := s.vessel(mmsi)
	if st == nil {
		return nil
	}
	return append(make([]CriticalPoint, 0, st.synopsis.len()), st.synopsis.live()...)
}

// Info returns the summary of one vessel; ok is false for vessels
// without live state.
func (s *Sharded) Info(mmsi uint32) (VesselInfo, bool) {
	s.settle()
	defer s.mu.Unlock()
	st := s.vessel(mmsi)
	if st == nil {
		return VesselInfo{}, false
	}
	return infoOf(st), true
}

// Infos returns the summary of every tracked vessel, ordered by MMSI.
func (s *Sharded) Infos() []VesselInfo {
	s.settle()
	defer s.mu.Unlock()
	out := make([]VesselInfo, 0, s.vesselCount())
	for i, sh := range s.shards {
		if s.outOfService(i) {
			continue
		}
		for j := range sh.slots {
			if sh.slots[j].inUse {
				out = append(out, infoOf(&sh.slots[j]))
			}
		}
	}
	slices.SortFunc(out, func(a, b VesselInfo) int {
		switch {
		case a.MMSI < b.MMSI:
			return -1
		case a.MMSI > b.MMSI:
			return 1
		}
		return 0
	})
	return out
}

// shardMetrics is the tier's observability wiring.
type shardMetrics struct {
	shardDur   []*obs.Histogram
	shardFixes []*obs.Counter
	mergeDur   *obs.Histogram
	mergeQueue *obs.Gauge
}

// RegisterMetrics exposes the tier's runtime metrics: per-shard slide
// duration histograms and routed-fix counters, the merged-result queue
// depth (shards finished but not yet folded into the slide output), and
// the merge cost itself. Call before the pipeline starts sliding.
func (s *Sharded) RegisterMetrics(r *obs.Registry) {
	m := &shardMetrics{
		shardDur:   make([]*obs.Histogram, len(s.shards)),
		shardFixes: make([]*obs.Counter, len(s.shards)),
		mergeDur: r.Histogram("maritime_tracker_merge_seconds",
			"Per-slide cost of merging per-shard tracker results into the deterministic output order.", nil, nil),
		mergeQueue: r.Gauge("maritime_tracker_merged_queue_depth",
			"Shards that finished the current slide but whose results are not yet merged.", nil),
	}
	for i := range s.shards {
		lbl := obs.Labels{"shard": strconv.Itoa(i)}
		m.shardDur[i] = r.Histogram("maritime_tracker_shard_slide_seconds",
			"Per-slide mobility tracking cost of one shard, in seconds.", lbl, nil)
		m.shardFixes[i] = r.Counter("maritime_tracker_shard_fixes_total",
			"Position fixes routed to this shard.", lbl)
	}
	r.GaugeFunc("maritime_tracker_shards",
		"Number of parallel mobility-tracker shards.", nil,
		func() float64 { return float64(len(s.shards)) })
	r.CounterFunc("maritime_tracker_late_fixes_total",
		"Out-of-order fixes, split by outcome: accepted (older than the last query but still sequenced) or dropped (behind their vessel's clock).",
		obs.Labels{"result": "accepted"},
		func() float64 { return float64(s.lateAcc.Load()) })
	r.CounterFunc("maritime_tracker_late_fixes_total",
		"Out-of-order fixes, split by outcome: accepted (older than the last query but still sequenced) or dropped (behind their vessel's clock).",
		obs.Labels{"result": "dropped"},
		func() float64 { return float64(s.lateDrop.Load()) })
	r.CounterFunc("maritime_tracker_shed_fixes_total",
		"Fixes of long-stopped vessels skipped under overload degradation.",
		nil, func() float64 { return float64(s.shedCnt.Load()) })
	r.CounterFunc("maritime_tracker_shard_panics_total",
		"Shard-worker panics recovered and turned into quarantines.",
		nil, func() float64 { return float64(s.panics.Load()) })
	r.CounterFunc("maritime_tracker_shard_stalls_total",
		"Shards quarantined by the per-slide stall watchdog.",
		nil, func() float64 { return float64(s.stalls.Load()) })
	r.GaugeFunc("maritime_tracker_shards_quarantined",
		"Shards currently quarantined, out of service until a checkpoint restore.",
		nil, func() float64 { return float64(s.quarCount.Load()) })
	r.CounterFunc("maritime_tracker_shard_dropped_fixes_total",
		"Fixes routed to a shard already out of service.",
		nil, func() float64 { return float64(s.dropped.Load()) })
	s.metrics = m
}
