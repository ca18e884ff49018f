package tracker

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ais"
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

// Sharded is the parallel mobility-tracking tier: per-vessel state is
// split across n single-threaded Tracker shards keyed by MMSI hash, all
// shards advance concurrently on every window slide, and the per-shard
// results are merged deterministically so that the output is exactly
// the critical-point stream a single tracker would have produced
// (fresh points in triggering-fix order, then slide-time gap points in
// MMSI order; delta points sorted by time then MMSI). One shard runs on
// the calling goroutine; the rest run on a persistent worker pool, so
// slides cost no goroutine churn.
//
// A Sharded with one shard never touches the pool and is byte-for-byte
// the legacy serial tracker.
//
// Unlike Tracker.Slide, the SlideResult returned by Sharded.Slide
// aliases tier-owned scratch: Fresh and Delta are valid until the next
// Slide call. The pipeline consumes them within the slide; callers that
// retain them must copy.
type Sharded struct {
	shards []*Tracker
	pool   *shardPool

	// Slide-scoped scratch, reused across slides; done is the fan-in
	// channel, allocated once since the non-healing slide drains it
	// completely.
	byShard [][]idxFix
	outs    []shardOut
	heads   []int
	fresh   []CriticalPoint
	delta   []CriticalPoint
	done    chan int

	metrics *shardMetrics

	// Self-healing state (nil unless EnableSelfHeal was called); see
	// heal.go. skip marks shards excluded from the current slide's merge
	// because they are quarantined or failed.
	heal      []shardHeal
	skip      []bool
	slideSeq  int
	timeout   time.Duration
	faultHook atomic.Pointer[func(shard, slide, attempt int)]

	// Fault counters, atomics so Health and metric scrapes may read
	// them from other goroutines mid-slide.
	panics      atomic.Int64
	stalls      atomic.Int64
	repairs     atomic.Int64
	retries     atomic.Int64
	quarCount   atomic.Int64
	failedCount atomic.Int64
	dropped     atomic.Int64
	gapSlides   atomic.Int64

	// Tier-wide ingest accounting shared by all shards (see Tracker).
	lateAcc  atomic.Int64
	lateDrop atomic.Int64
	shedCnt  atomic.Int64
	shedOn   atomic.Bool

	closeOnce sync.Once
}

// idxFix is a routed fix tagged with its index in the original batch,
// the key the merge uses to restore global emission order.
type idxFix struct {
	fix ais.Fix
	idx int32
}

// shardOut is one shard's slide outcome.
type shardOut struct {
	gapStart int // offset in the shard's fresh where gap-sweep points begin
	delta    []CriticalPoint
	dur      time.Duration
	panic    *supervise.Quarantine // set when a recoverable job panicked
}

// shardJob is one unit of work for the pool. It carries everything the
// worker needs so that workers never reference the Sharded tier itself
// (which lets an abandoned tier be finalized and its pool reclaimed).
type shardJob struct {
	tr      *Tracker
	fixes   []idxFix
	q       time.Time
	out     *shardOut
	done    chan<- int
	i       int
	pending *obs.Gauge // merged-queue depth; nil without metrics

	// Self-heal extras: chaos injection hook, slide ordinal, retry
	// attempt, and whether a panic is contained (quarantined) rather
	// than propagated (legacy crash-the-process behavior).
	hook        *func(shard, slide, attempt int)
	slide       int
	attempt     int
	recoverable bool
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
		case <-p.stop:
			return
		}
	}
}

// addWorker grows the pool by one worker: used when self-healing is
// enabled (so every shard runs pooled and the caller is free to
// watchdog) and to replace a worker lost inside a wedged shard.
func (p *shardPool) addWorker() { go p.worker() }

// runShard advances one shard through a slide and publishes its result.
// Recoverable jobs convert a panic — the shard's own state machine or an
// injected fault — into a quarantine record on the job's out slot
// instead of unwinding the worker; non-recoverable jobs keep the legacy
// crash-the-process behavior.
func runShard(j shardJob) {
	if j.recoverable {
		defer func() {
			if r := recover(); r != nil {
				q := supervise.Panicked(fmt.Sprintf("tracker/%d", j.i), r)
				j.out.panic = &q
				if j.done != nil {
					j.done <- j.i
				}
			}
		}()
	}
	start := time.Now()
	if j.hook != nil {
		(*j.hook)(j.i, j.slide, j.attempt)
	}
	j.tr.beginSlide()
	for _, xf := range j.fixes {
		j.tr.ingestIndexed(xf.fix, xf.idx)
	}
	gapStart, delta := j.tr.finishSlide(j.q)
	*j.out = shardOut{gapStart: gapStart, delta: delta, dur: time.Since(start)}
	if j.pending != nil {
		j.pending.Add(1)
	}
	if j.done != nil {
		j.done <- j.i
	}
}

// NewSharded returns a sharded tracking tier with the given number of
// shards (values below 1 are clamped to 1; 1 is the exact legacy serial
// tracker). All shards share the same parameters and window.
func NewSharded(params Params, window stream.WindowSpec, shards int) *Sharded {
	if shards < 1 {
		shards = 1
	}
	s := &Sharded{
		shards:  make([]*Tracker, shards),
		byShard: make([][]idxFix, shards),
		outs:    make([]shardOut, shards),
		heads:   make([]int, shards),
		done:    make(chan int, shards),
	}
	for i := range s.shards {
		s.shards[i] = New(params, window)
		s.shards[i].indexing = shards > 1
		s.wireShared(s.shards[i])
	}
	if shards > 1 {
		s.pool = newShardPool(shards - 1)
		// Reclaim the pool goroutines if the tier is dropped without an
		// explicit Close (benchmarks, tests, short-lived drivers). The
		// workers reference only the pool's channels, never s, so an
		// unreachable tier does get finalized.
		runtime.SetFinalizer(s, (*Sharded).Close)
	}
	return s
}

// DefaultShards is the shard count used when a configuration leaves it
// zero: one shard per available CPU.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// Close stops the worker pool. It must not be called concurrently with
// Slide. Closing is idempotent; a closed tier must not slide again.
func (s *Sharded) Close() {
	s.closeOnce.Do(func() {
		if s.pool != nil {
			close(s.pool.stop)
		}
		runtime.SetFinalizer(s, nil)
	})
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Params returns the tracking parameters (identical across shards).
func (s *Sharded) Params() Params { return s.shards[0].Params() }

// shardFor returns the shard owning the vessel.
func (s *Sharded) shardFor(mmsi uint32) *Tracker {
	return s.shards[ShardOf(mmsi, len(s.shards))]
}

// wireShared points a shard at the tier-wide accounting atomics.
func (s *Sharded) wireShared(tr *Tracker) {
	tr.lateAcc = &s.lateAcc
	tr.lateDrop = &s.lateDrop
	tr.shedCnt = &s.shedCnt
	tr.shed = &s.shedOn
}

// SetShedStationary toggles overload shedding: while on, fixes from
// long-stopped vessels only advance the vessel clock (see Tracker
// ingest). Safe to call from any goroutine.
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

// Slide processes one batch across all shards and merges the results.
// The returned Fresh and Delta slices are tier-owned scratch, valid
// until the next Slide.
func (s *Sharded) Slide(b stream.Batch) SlideResult {
	if s.heal != nil {
		return s.slideHealed(b)
	}
	n := len(s.shards)
	if n == 1 {
		tr := s.shards[0]
		start := time.Now()
		tr.beginSlide()
		for _, f := range b.Fixes {
			tr.ingestFix(f)
		}
		_, delta := tr.finishSlide(b.Query)
		if s.metrics != nil {
			s.metrics.shardDur[0].ObserveDuration(time.Since(start))
			s.metrics.shardFixes[0].Add(uint64(len(b.Fixes)))
		}
		return SlideResult{Query: b.Query, Fresh: tr.fresh, Delta: delta}
	}

	s.route(b)

	// Fan out: shards 1..n-1 to the pool, shard 0 on this goroutine. The
	// fan-in channel is tier-owned; every slide drains it completely.
	var pending *obs.Gauge
	if s.metrics != nil {
		pending = s.metrics.mergeQueue
	}
	for i := 1; i < n; i++ {
		s.pool.jobs <- shardJob{
			tr: s.shards[i], fixes: s.byShard[i], q: b.Query,
			out: &s.outs[i], done: s.done, i: i, pending: pending,
		}
	}
	runShard(shardJob{
		tr: s.shards[0], fixes: s.byShard[0], q: b.Query,
		out: &s.outs[0], done: nil, i: 0, pending: pending,
	})
	for got := 1; got < n; got++ {
		<-s.done
	}

	mergeStart := time.Now()
	s.merge(n, pending)
	if s.metrics != nil {
		for i := range s.outs {
			s.metrics.shardDur[i].ObserveDuration(s.outs[i].dur)
			s.metrics.shardFixes[i].Add(uint64(len(s.byShard[i])))
		}
		s.metrics.mergeDur.ObserveDuration(time.Since(mergeStart))
	}
	return SlideResult{Query: b.Query, Fresh: s.fresh, Delta: s.delta}
}

// route splits the batch into the per-shard routing buffers (reused
// across slides): each fix goes to the shard owning its vessel, tagged
// with its batch index.
func (s *Sharded) route(b stream.Batch) {
	n := len(s.shards)
	for i := range s.byShard {
		s.byShard[i] = s.byShard[i][:0]
	}
	for i, f := range b.Fixes {
		sh := ShardOf(f.MMSI, n)
		s.byShard[sh] = append(s.byShard[sh], idxFix{fix: f, idx: int32(i)})
	}
}

// merge recombines the per-shard slide outputs into the exact serial
// emission order:
//
//   - ingest-time points, k-way merged on the batch index of their
//     triggering fix (each index lives in exactly one shard, so the
//     interleaving is unique);
//   - slide-time gap-sweep points, k-way merged on MMSI (each shard's
//     sweep is MMSI-sorted and the MMSI sets are disjoint);
//   - delta points, k-way merged on (time, MMSI) — the same key the
//     serial tracker stable-sorts by, with cross-shard ties impossible
//     because equal keys imply equal MMSIs.
func (s *Sharded) merge(n int, pending *obs.Gauge) {
	s.fresh = s.fresh[:0]
	s.delta = s.delta[:0]

	// Ingest segment, by triggering-fix index.
	for i := 0; i < n; i++ {
		s.heads[i] = 0
	}
	for {
		best := -1
		var bestIdx int32
		for i := 0; i < n; i++ {
			if s.skip != nil && s.skip[i] {
				continue
			}
			h := s.heads[i]
			if h >= s.outs[i].gapStart {
				continue
			}
			if idx := s.shards[i].freshIdx[h]; best == -1 || idx < bestIdx {
				best, bestIdx = i, idx
			}
		}
		if best == -1 {
			break
		}
		s.fresh = append(s.fresh, s.shards[best].fresh[s.heads[best]])
		s.heads[best]++
	}

	// Gap-sweep segment, by MMSI.
	for {
		best := -1
		var bestMMSI uint32
		for i := 0; i < n; i++ {
			if s.skip != nil && s.skip[i] {
				continue
			}
			h := s.heads[i]
			if h >= len(s.shards[i].fresh) {
				continue
			}
			if m := s.shards[i].fresh[h].MMSI; best == -1 || m < bestMMSI {
				best, bestMMSI = i, m
			}
		}
		if best == -1 {
			break
		}
		s.fresh = append(s.fresh, s.shards[best].fresh[s.heads[best]])
		s.heads[best]++
	}

	// Delta stream, by (time, MMSI).
	for i := 0; i < n; i++ {
		s.heads[i] = 0
	}
	for {
		best := -1
		for i := 0; i < n; i++ {
			if s.skip != nil && s.skip[i] {
				continue
			}
			h := s.heads[i]
			if h >= len(s.outs[i].delta) {
				continue
			}
			if best == -1 || compareDelta(s.outs[i].delta[h], s.outs[best].delta[s.heads[best]]) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		s.delta = append(s.delta, s.outs[best].delta[s.heads[best]])
		s.heads[best]++
	}
	if pending != nil {
		pending.Add(-float64(n))
	}
}

// outOfService reports whether a shard is quarantined or failed. Such a
// shard's Tracker may still be mutated by a wedged goroutine, so every
// read path must skip it until a repair swaps in a rebuilt tracker.
func (s *Sharded) outOfService(i int) bool {
	return s.heal != nil && (s.heal[i].quarantined || s.heal[i].failed)
}

// Stats returns the merged counter snapshot across all shards.
// Quarantined shards are excluded (their trackers are unsafe to read);
// their counters reappear once a repair rebuilds them from the journal.
func (s *Sharded) Stats() Stats {
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
		for k, v := range sh.stats.ByType {
			out.ByType[k] += v
		}
	}
	return out
}

// VesselCount returns the number of vessels with live state across all
// shards.
func (s *Sharded) VesselCount() int {
	n := 0
	for i, sh := range s.shards {
		if s.outOfService(i) {
			continue
		}
		n += sh.VesselCount()
	}
	return n
}

// Odometer returns a vessel's traveled distance; see Tracker.Odometer.
func (s *Sharded) Odometer(mmsi uint32) (totalM, sinceDepartureM float64, ok bool) {
	if s.outOfService(ShardOf(mmsi, len(s.shards))) {
		return 0, 0, false
	}
	return s.shardFor(mmsi).Odometer(mmsi)
}

// Synopsis returns the retained critical points of one vessel; see
// Tracker.Synopsis.
func (s *Sharded) Synopsis(mmsi uint32) []CriticalPoint {
	if s.outOfService(ShardOf(mmsi, len(s.shards))) {
		return nil
	}
	return s.shardFor(mmsi).Synopsis(mmsi)
}

// Info returns the public summary of one vessel; see Tracker.Info.
func (s *Sharded) Info(mmsi uint32) (VesselInfo, bool) {
	if s.outOfService(ShardOf(mmsi, len(s.shards))) {
		return VesselInfo{}, false
	}
	return s.shardFor(mmsi).Info(mmsi)
}

// Infos returns the summary of every tracked vessel, ordered by MMSI.
func (s *Sharded) Infos() []VesselInfo {
	if len(s.shards) == 1 && s.heal == nil {
		return s.shards[0].Infos()
	}
	var out []VesselInfo
	for i, sh := range s.shards {
		if s.outOfService(i) {
			continue
		}
		out = append(out, sh.Infos()...)
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
		"Shard-worker panics recovered by the self-healing tier.",
		nil, func() float64 { return float64(s.panics.Load()) })
	r.CounterFunc("maritime_tracker_shard_stalls_total",
		"Shards quarantined by the per-slide stall watchdog.",
		nil, func() float64 { return float64(s.stalls.Load()) })
	r.CounterFunc("maritime_tracker_shard_repairs_total",
		"Shard recoveries: in-slide journal re-runs plus quarantine repairs.",
		nil, func() float64 { return float64(s.retries.Load() + s.repairs.Load()) })
	r.GaugeFunc("maritime_tracker_shards_quarantined",
		"Shards currently quarantined and awaiting repair.",
		nil, func() float64 { return float64(s.quarCount.Load()) })
	r.CounterFunc("maritime_tracker_shard_dropped_fixes_total",
		"Fixes dropped because their shard was out of service.",
		nil, func() float64 { return float64(s.dropped.Load()) })
	s.metrics = m
}
