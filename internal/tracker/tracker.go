package tracker

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/stream"
	"repro/internal/supervise"
)

// shard is one partition of the tracking tier: the per-vessel motion
// state of the vessels hashed to it and the single-threaded state
// machine that advances them (see Sharded). Internal clocks are int64
// nanoseconds; emitted critical points carry time.Time values rebuilt
// with time.Unix(0, ns).UTC().
//
// Vessel state lives in a slab: slots holds every vessel's state by
// value, index maps an MMSI to its slot, and free lists the slots of
// evicted vessels for reuse, together with their run and synopsis
// capacity. The speed, heading and turn windows of slot i live in one
// shard-wide arena, rings, at [i·3M, (i+1)·3M).
type shard struct {
	params Params
	window stream.WindowSpec
	index  map[uint32]int32
	slots  []vesselState
	free   []int32
	rings  []float64
	stats  Stats // ByType stays nil: per-type counts live in byType
	byType [numEventTypes]int

	// Slide-scoped scratch, reused across slides so the hot path does
	// not re-allocate per slide. fresh holds the emissions of the
	// current slide; delta and gapScan back eviction and the slide-time
	// gap sweep. fresh and deltaOut, which a one-shard tier hands out as
	// its result, swap with their spares every slide, so the previous
	// slide's result stays intact while this one is tracked.
	fresh      []CriticalPoint
	spareFresh []CriticalPoint
	delta      []CriticalPoint
	deltaKey   []deltaSortKey
	deltaOut   []CriticalPoint
	spareDelta []CriticalPoint
	gapScan    []gapCand
	evictScan  []int32   // slots
	medianSums []float64 // runMedian's scratch: per-member distance sums, then latitude cosines

	// freshIdx records, parallel to the ingest-time part of fresh, the
	// batch index of the fix that triggered each emission, so the merge
	// can restore global batch order exactly; it swaps with its spare
	// like fresh.
	freshIdx      []int32
	spareFreshIdx []int32

	// Vessel-major ingest scratch (see ingestSlide), per record: its
	// vessel's slot and the span of fresh its emissions took; the record
	// positions grouped by slot and, per slot, where its group ends; per
	// ingest-time emission, its batch-order position.
	recSlot []int32
	recSpan []emitSpan
	order   []int32
	slotEnd []int32
	dest    []int32

	// lastQueryNS is the query time that closed the previous slide: the
	// boundary against which accepted fixes are classified as late.
	lastQueryNS int64
	haveLastQ   bool

	// shedding is the tier's overload-shedding switch as of the current
	// slide (see Sharded.SetShedStationary).
	shedding bool

	// Tier-shared accounting, wired by the tier. Atomics because core.Health and metric scrapes read them from other
	// goroutines mid-slide.
	lateAcc  *atomic.Int64
	lateDrop *atomic.Int64
	shedCnt  *atomic.Int64
}

// numEventTypes bounds the EventType values a shard counts.
const numEventTypes = int(EventSlowEnd) + 1

// nsTime rebuilds the time.Time for an internal nanosecond clock value.
// For UTC instants within time.Unix's normalization range this yields a
// struct identical to the original fix time.
func nsTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// runFix is one member of a stop or slow run: position plus nanosecond
// timestamp.
type runFix struct {
	pos geo.Point
	tns int64
}

// noSynopsis is the cached oldest-synopsis time of a vessel whose
// synopsis is empty: later than every cutoff.
const noSynopsis = math.MaxInt64

// vesselState is one vessel's in-memory motion state, held by value in
// its shard's slab. The fields every fix touches come first — the
// flags, the ring cursors and the turn window's running sums, the last
// fix, the odometers and the run headers — so a fix reads and writes
// about three cache lines of it; the identity, the cached oldest-synopsis
// time, the stop-run aggregates and the synopsis itself follow. The
// vessel's speed, heading and turn windows are rings in the shard's
// arena (see shard), addressed by the cursors here.
type vesselState struct {
	inUse    bool // the slot holds a vessel (false on the free list)
	haveLast bool
	haveV    bool
	gapOpen  bool
	stopped  bool // in a long-term stop episode
	slow     bool // in a slow-motion episode

	// Ring cursors: the oldest entry and the entry count of the
	// speed/heading window (the up to M latest velocity vectors, for the
	// mean course) and of the turn window (the signed heading deltas of
	// the last M steps).
	velHead, velLen   int32
	turnHead, turnLen int32

	outlierRun int32

	// Running sums of the turn ring, which settle the smooth-turn test
	// without folding the ring (see windowSum); zeroed with turnLen.
	turnSum windowSum

	lastPos  geo.Point
	lastTNS  int64
	lastTrig geo.LatTrig // sin/cos of lastPos.Lat, cached for the next hop
	vPrev    geo.Velocity

	// Odometers (the §3.1 extension the paper plans: "capture additional
	// features, such as traveled distance from a given origin"): total
	// accepted-hop distance, and distance since the vessel last departed
	// — i.e. since its last long-term stop ended.
	odometerM  float64
	departureM float64

	// Long-term stop run: consecutive low-speed fixes (its aggregates
	// follow below).
	stopRun []runFix
	// Slow-motion run: consecutive slow (but moving) fixes.
	slowRun []runFix

	mmsi uint32
	// synOldestNS caches the oldest synopsis point's time (noSynopsis
	// when empty), so the slide-closing sweep never reads the synopsis.
	synOldestNS int64

	// Incremental centroid sums and a bounding box over the stop run, so
	// the within-radius check is O(1) when the run obviously fits (see
	// stopWithin).
	stopSumLon float64
	stopSumLat float64
	stopMinLon float64
	stopMaxLon float64
	stopMinLat float64
	stopMaxLat float64

	synopsis synopsisBuf
}

// setLast advances the vessel clock and position, caching the latitude
// trig for the next hop.
func (st *vesselState) setLast(pos geo.Point, tns int64, trig geo.LatTrig) {
	st.lastPos = pos
	st.lastTNS = tns
	st.lastTrig = trig
}

// addPoint appends a critical point to the vessel's synopsis.
func (st *vesselState) addPoint(cp *CriticalPoint) {
	if st.synopsis.len() == 0 {
		st.synOldestNS = cp.Time.UnixNano()
	}
	st.synopsis.push(cp)
}

// expire appends the synopsis points at or before cutoffNS to dst,
// oldest first, and drops them.
func (st *vesselState) expire(dst []CriticalPoint, cutoffNS int64) []CriticalPoint {
	dst = st.synopsis.expire(dst, cutoffNS)
	st.synOldestNS = st.synopsis.oldestNS()
	return dst
}

// admit returns the slot of a vessel new to the shard: a free slot,
// which keeps its run and synopsis capacity, or a new one. A new slot's
// runs have no capacity until their first member (see appendRunFix), as
// most vessels never enter a stop or slow episode.
func (tr *shard) admit(mmsi uint32) int32 {
	var slot int32
	if n := len(tr.free); n > 0 {
		slot = tr.free[n-1]
		tr.free = tr.free[:n-1]
	} else {
		m := tr.params.M
		slot = int32(len(tr.slots))
		tr.slots = append(tr.slots, vesselState{})
		tr.rings = slices.Grow(tr.rings, 3*m)[:len(tr.rings)+3*m]
	}
	st := &tr.slots[slot]
	st.inUse = true
	st.mmsi = mmsi
	st.synOldestNS = noSynopsis
	tr.index[mmsi] = slot
	return slot
}

// release evicts the vessel in slot and puts the slot on the free list.
// Everything but the runs' and the synopsis's capacity is cleared, so
// the vessel that reuses the slot starts from a fresh vessel's state:
// empty windows, runs and synopsis, zero odometers.
func (tr *shard) release(slot int32) {
	st := &tr.slots[slot]
	delete(tr.index, st.mmsi)
	*st = vesselState{
		stopRun:  st.stopRun[:0],
		slowRun:  st.slowRun[:0],
		synopsis: synopsisBuf{items: st.synopsis.items[:0]},
	}
	tr.free = append(tr.free, slot)
}

// appendRunFix appends f to a stop or slow run. A run without capacity
// gets its steady-state capacity at once — the runs hover around 2M
// members — so a vessel entering its first episode pays one allocation,
// not a growslice ladder over its first dozen fixes.
func (tr *shard) appendRunFix(run []runFix, f runFix) []runFix {
	if cap(run) == 0 {
		run = make([]runFix, 0, 2*tr.params.M)
	}
	return append(run, f)
}

// resetTurns empties the turn window.
func (st *vesselState) resetTurns() {
	st.turnLen, st.turnSum = 0, windowSum{}
}

// vesselRings returns the speed, heading and turn rings of slot, each M
// long.
func (tr *shard) vesselRings(slot int32) (speeds, headings, turns []float64) {
	m := tr.params.M
	r := tr.rings[int(slot)*3*m:][: 3*m : 3*m]
	return r[:m:m], r[m : 2*m : 2*m], r[2*m:]
}

// ringNext returns the index of a ring of m entries that its next entry
// goes to, and advances the cursors: a ring that is full drops its
// oldest entry.
func ringNext(m int32, head, n *int32) int32 {
	if *n < m {
		i := *head + *n
		if i >= m {
			i -= m
		}
		*n++
		return i
	}
	i := *head
	if *head++; *head == m {
		*head = 0
	}
	return i
}

// ringSegments returns a ring's n entries from head on, oldest first, as
// the two contiguous runs they occupy.
func ringSegments(ring []float64, head, n int32) (a, b []float64) {
	if end := head + n; end <= int32(len(ring)) {
		return ring[head:end], nil
	}
	return ring[head:], ring[:head+n-int32(len(ring))]
}

// ringSum folds a ring oldest first: the sum is bit-identical to a
// left-to-right fold over the window in arrival order.
func ringSum(ring []float64, head, n int32) float64 {
	a, b := ringSegments(ring, head, n)
	var sum float64
	for _, v := range a {
		sum += v
	}
	for _, v := range b {
		sum += v
	}
	return sum
}

// SlideResult is the output of one window slide.
type SlideResult struct {
	// Query is the query time Q_i closing this slide.
	Query time.Time
	// Fresh contains the critical points detected during this slide, in
	// emission order — the input of complex event recognition.
	Fresh []CriticalPoint
	// Delta contains critical points that expired from the sliding
	// window at this query time and move to the staging area for offline
	// trajectory reconstruction (paper §3.2).
	Delta []CriticalPoint
	// Faults holds the quarantine records of the shards this slide took
	// out of service, and LostFixes their fixes of this slide, which
	// Fresh and Delta lack. Both are empty on a healthy slide.
	Faults    []supervise.Quarantine
	LostFixes int
}

// slide advances the shard through one slide: it ingests the fixes
// routed to it (each carrying its index in the whole batch, which
// freshIdx records), then runs the slide-time gap sweep and window
// eviction. The result holds the slide's emissions — ordered by
// triggering fix up to gapStart, then the gap sweep's by MMSI — and the
// expired delta points, all shard-owned scratch valid until the slide
// after next.
func (tr *shard) slide(in shardIn, q time.Time) shardOut {
	tr.beginSlide(in)
	tr.ingestSlide(in.recs)
	return tr.closeSlide(q)
}

// beginSlide swaps in the slide's output buffers and its shedding switch.
func (tr *shard) beginSlide(in shardIn) {
	tr.fresh, tr.spareFresh = tr.spareFresh[:0], tr.fresh
	tr.freshIdx, tr.spareFreshIdx = tr.spareFreshIdx[:0], tr.freshIdx
	tr.deltaOut, tr.spareDelta = tr.spareDelta, tr.deltaOut
	tr.shedding = in.shed
}

// closeSlide runs the slide-time gap sweep and eviction after the
// slide's fixes are in, and returns the slide's output.
func (tr *shard) closeSlide(q time.Time) shardOut {
	gapStart := len(tr.fresh)
	tr.collectSweeps(q)
	tr.detectGaps(q)
	delta := tr.evict(q)
	tr.lastQueryNS = q.UnixNano()
	tr.haveLastQ = true
	return shardOut{fresh: tr.fresh, freshIdx: tr.freshIdx, gapStart: gapStart, delta: delta}
}

// emitSpan is where one record's emissions sit in fresh, [from, to).
type emitSpan struct{ from, to int32 }

// ingestSlide ingests a slide's records vessel-major, in three passes,
// and leaves fresh and freshIdx exactly as ingesting them in batch order
// would:
//
//  1. slot pass: one probe per record, admitting new vessels in batch
//     order, so slots are numbered as batch-order ingest numbers them;
//  2. ingest: the record positions are counting-sorted by slot — O(fixes
//     + slots), no comparisons — and each vessel's fixes are ingested
//     back to back, in their batch order, on a warm vessel state;
//  3. restore: the emissions are permuted in place into batch order of
//     their triggering fixes, the emissions of one fix kept in their
//     emission order, and freshIdx is written alongside.
//
// Vessels are independent, so the order a vessel's fixes interleave
// with other vessels' changes nothing but the order of fresh, which the
// third pass restores.
func (tr *shard) ingestSlide(recs []fixRec) {
	n := len(recs)
	slot := slices.Grow(tr.recSlot[:0], n)[:n]
	tr.recSlot = slot
	for i := range recs {
		s, ok := tr.index[recs[i].mmsi]
		if !ok {
			s = tr.admit(recs[i].mmsi)
		}
		slot[i] = s
	}

	// Counting sort: ends[s] first counts slot s's records, then holds
	// where its group starts in order, then, once the group is placed,
	// where it ends.
	ends := slices.Grow(tr.slotEnd[:0], len(tr.slots))[:len(tr.slots)]
	tr.slotEnd = ends
	clear(ends)
	for _, s := range slot {
		ends[s]++
	}
	var sum int32
	for s, c := range ends {
		ends[s] = sum
		sum += c
	}
	order := slices.Grow(tr.order[:0], n)[:n]
	tr.order = order
	for i, s := range slot {
		order[ends[s]] = int32(i)
		ends[s]++
	}

	span := slices.Grow(tr.recSpan[:0], n)[:n]
	tr.recSpan = span
	var k int32
	for s, end := range ends {
		for ; k < end; k++ {
			i := order[k]
			r := &recs[i]
			from := int32(len(tr.fresh))
			tr.ingest(int32(s), r.mmsi, r.lon, r.lat, r.ns)
			span[i] = emitSpan{from, int32(len(tr.fresh))}
		}
	}

	dest := slices.Grow(tr.dest[:0], len(tr.fresh))[:len(tr.fresh)]
	tr.dest = dest
	for i := range recs {
		for j := span[i].from; j < span[i].to; j++ {
			dest[j] = int32(len(tr.freshIdx))
			tr.freshIdx = append(tr.freshIdx, recs[i].idx)
		}
	}
	// Each swap puts one point where it belongs, so the permutation
	// costs at most one swap per emission and no second buffer.
	for j := range dest {
		for d := dest[j]; d != int32(j); d = dest[j] {
			tr.fresh[j], tr.fresh[d] = tr.fresh[d], tr.fresh[j]
			dest[j], dest[d] = dest[d], d
		}
	}
}

// collectSweeps walks the slab once, gathering the candidates of
// both slide-closing phases: vessels due a gap-start emission and
// vessels with window-expired synopsis points or stale state. Collecting
// before the gap sweep runs is exact: sweep emissions are stamped at a
// vessel's last-fix time, so a vessel whose clock is inside the window
// range cannot gain expired points from the sweep, and one whose clock
// is outside it is already a full-eviction candidate.
func (tr *shard) collectSweeps(q time.Time) {
	qns := q.UnixNano()
	gapNS := int64(tr.params.GapPeriod)
	cutoffNS := q.Add(-tr.window.Range).UnixNano()
	tr.gapScan = tr.gapScan[:0]
	tr.evictScan = tr.evictScan[:0]
	for i := range tr.slots {
		st := &tr.slots[i]
		if !st.inUse {
			continue
		}
		if st.haveLast && !st.gapOpen && qns-st.lastTNS >= gapNS {
			tr.gapScan = append(tr.gapScan, gapCand{mmsi: st.mmsi, slot: int32(i)})
		}
		if st.lastTNS <= cutoffNS || st.synOldestNS <= cutoffNS {
			tr.evictScan = append(tr.evictScan, int32(i))
		}
	}
}

// gapCand is a vessel due a slide-time gap-start emission.
type gapCand struct {
	mmsi uint32
	slot int32
}

// emit records a critical point.
func (tr *shard) emit(st *vesselState, cp CriticalPoint) {
	tr.stats.Critical++
	tr.byType[cp.Type]++
	tr.fresh = append(tr.fresh, cp)
	st.addPoint(&tr.fresh[len(tr.fresh)-1])
}

// noteLateAccepted counts an admitted fix whose timestamp precedes the
// last query time: it belongs to an already-closed slide but still
// advances its vessel's clock, so it is processed rather than dropped.
func (tr *shard) noteLateAccepted(tns int64) {
	if tr.haveLastQ && tns < tr.lastQueryNS {
		tr.stats.LateAccepted++
		if tr.lateAcc != nil {
			tr.lateAcc.Add(1)
		}
	}
}

// ingest processes one fix, given as scalar values, of the vessel in
// slot.
func (tr *shard) ingest(slot int32, mmsi uint32, lon, lat float64, tns int64) {
	tr.stats.FixesIn++
	st := &tr.slots[slot]
	pos := geo.Point{Lon: lon, Lat: lat}
	if !st.haveLast {
		st.setLast(pos, tns, geo.LatTrigOf(pos))
		st.haveLast = true
		tr.noteLateAccepted(tns)
		tr.emit(st, CriticalPoint{MMSI: mmsi, Pos: pos, Time: nsTime(tns), Type: EventFirst})
		return
	}
	if tns <= st.lastTNS {
		tr.stats.Duplicates++
		if tns < st.lastTNS {
			// Behind the vessel's own clock: a reordered fix that cannot
			// be sequenced any more.
			tr.stats.LateDropped++
			if tr.lateDrop != nil {
				tr.lateDrop.Add(1)
			}
		}
		return
	}
	tr.noteLateAccepted(tns)

	p := &tr.params
	dt := time.Duration(tns - st.lastTNS)
	trig := geo.LatTrigOf(pos)

	// Overload shedding (degradation ladder L3): while the pipeline is
	// shedding, positions of long-stopped vessels only advance the
	// vessel clock — no event detection, no synopsis growth. A fix that
	// leaves the stop circle (or a communication gap) re-enters the full
	// path so departures are still caught.
	if st.stopped && tr.shedding &&
		dt < p.GapPeriod && geo.HaversineCached(st.lastPos, pos, st.lastTrig, trig) <= p.StopRadiusMeters {
		tr.stats.Shed++
		if tr.shedCnt != nil {
			tr.shedCnt.Add(1)
		}
		st.setLast(pos, tns, trig)
		return
	}

	// Communication gap closed by this fix (it may also have been opened
	// at a slide boundary while the vessel was silent).
	if dt >= p.GapPeriod || st.gapOpen {
		if !st.gapOpen {
			tr.closeRuns(st, st.lastTNS)
			tr.emit(st, CriticalPoint{
				MMSI: mmsi, Pos: st.lastPos, Time: nsTime(st.lastTNS), Type: EventGapStart,
			})
		}
		st.gapOpen = false
		tr.emit(st, CriticalPoint{MMSI: mmsi, Pos: pos, Time: nsTime(tns), Type: EventGapEnd})
		// Count the chord across the silence: the true path is unknown
		// but at least this far was covered.
		hop := geo.HaversineCached(st.lastPos, pos, st.lastTrig, trig)
		st.odometerM += hop
		st.departureM += hop
		// The course across the silence is unknown: restart motion state.
		st.haveV = false
		st.velLen = 0
		st.resetTurns()
		st.outlierRun = 0
		st.setLast(pos, tns, trig)
		return
	}

	if dt <= 0 {
		// Unreachable (non-advancing timestamps returned above); kept as
		// the row path's "velocity unknown" guard.
		tr.stats.Duplicates++
		return
	}
	vNow, dist := geo.VelocityDistBetween(st.lastPos, pos, dt, st.lastTrig, trig)
	speeds, headings, turns := tr.vesselRings(slot)

	// Off-course outlier rejection (paper Figure 2(d)): an abrupt change
	// in both speed and heading relative to the mean velocity over the
	// previous m positions marks a temporary deviation to discard. The
	// absolute speed floor is checked first so the mean fold only runs
	// for fixes fast enough to ever be outliers.
	if !p.DisableOutlierFilter && vNow.SpeedKnots > p.OutlierMinKnots && int(st.velLen) >= p.M/2 {
		// The speed test alone settles nearly every fix; the heading fold
		// (per-entry trig plus an atan2) only runs once the speed factor
		// is exceeded. Short-circuit order matches the combined fold, so
		// accepted/rejected decisions are identical.
		ref := max(ringSum(speeds, st.velHead, st.velLen)/float64(st.velLen), 1)
		if vNow.SpeedKnots > p.OutlierSpeedFactor*ref &&
			geo.HeadingDelta(vNow.HeadingDeg, ringMeanHeading(speeds, headings, st.velHead, st.velLen)) > p.OutlierHeadingDeg {
			st.outlierRun++
			if int(st.outlierRun) < p.OutlierRunLimit {
				tr.stats.Outliers++
				return
			}
			// Too many consecutive rejections: the course truly
			// changed. Resynchronize on this fix.
			st.velLen = 0
		}
	}
	st.outlierRun = 0

	moving := vNow.SpeedKnots > p.VMinKnots

	// Turns are only meaningful while under way on both fixes. A sharp
	// turn between the previous and the current velocity vector pivots
	// at the *previous* position, so the critical (turning) point is
	// emitted there — retaining the corner keeps reconstruction tight.
	if st.haveV && moving && st.vPrev.SpeedKnots > p.VMinKnots {
		delta := geo.SignedHeadingDelta(st.vPrev.HeadingDeg, vNow.HeadingDeg)
		if math.Abs(delta) > p.TurnThresholdDeg {
			tr.emit(st, CriticalPoint{
				MMSI: mmsi, Pos: st.lastPos, Time: nsTime(st.lastTNS), Type: EventTurn,
				SpeedKn: vNow.SpeedKnots, HeadingDeg: vNow.HeadingDeg,
				Confidence: marginConfidence(math.Abs(delta), p.TurnThresholdDeg),
			})
			st.resetTurns()
		} else {
			// Small individual changes may cumulatively signify a smooth
			// turn (paper Figure 3(b)): the cumulative change in heading
			// across the m most recent positions exceeding Δθ. Bounding
			// the accumulation window keeps the slow bearing drift of
			// long legs from masking genuine course changes. The running
			// sums settle the test unless the threshold is within their
			// error bound, and only then is the ring folded.
			pushWindow(turns, &st.turnHead, &st.turnLen, &st.turnSum, delta)
			if cum, ok := cumTurnAbove(p.TurnThresholdDeg, turns, st.turnHead, st.turnLen, &st.turnSum); ok {
				tr.emit(st, CriticalPoint{
					MMSI: mmsi, Pos: pos, Time: nsTime(tns), Type: EventSmoothTurn,
					SpeedKn: vNow.SpeedKnots, HeadingDeg: vNow.HeadingDeg,
					Confidence: marginConfidence(math.Abs(cum), p.TurnThresholdDeg),
				})
				st.resetTurns()
			}
		}
	} else {
		st.resetTurns()
	}

	// Instantaneous speed change (paper Figure 2(b)): emitted only when
	// the vessel is not inside a stop episode, where jitter speeds spam.
	if st.haveV && !st.stopped && (moving || st.vPrev.SpeedKnots > p.VMinKnots) {
		denom := max(vNow.SpeedKnots, 0.1)
		rel := math.Abs(vNow.SpeedKnots-st.vPrev.SpeedKnots) / denom
		if rel > p.SpeedChangeFrac {
			tr.emit(st, CriticalPoint{
				MMSI: mmsi, Pos: pos, Time: nsTime(tns), Type: EventSpeedChange,
				SpeedKn: vNow.SpeedKnots, HeadingDeg: vNow.HeadingDeg,
				Confidence: marginConfidence(rel, p.SpeedChangeFrac),
			})
		}
	}

	tr.updateStopRun(st, pos, tns, vNow, moving)
	tr.updateSlowRun(st, pos, tns, vNow, moving)

	// The odometer hop is the same great-circle distance the velocity
	// was derived from: reuse it instead of recomputing.
	st.odometerM += dist
	st.departureM += dist

	i := ringNext(int32(len(speeds)), &st.velHead, &st.velLen)
	speeds[i], headings[i] = vNow.SpeedKnots, vNow.HeadingDeg
	st.vPrev = vNow
	st.haveV = true
	st.setLast(pos, tns, trig)
}

// ringMeanHeading folds the heading half of the velocity window, oldest
// first, bit-identical to geo.MeanVelocity's HeadingDeg over the same
// samples: SinCosDeg returns exactly what the per-sample Sin/Cos calls
// would (pinned by the geo trig tests), and the zero-vector case yields
// the same zero heading. Heading trig is not cached per sample: the
// outlier gate's speed test rejects almost every fix before this fold
// runs, so SinCosDeg is paid per entry only inside it.
func ringMeanHeading(speeds, headings []float64, head, n int32) float64 {
	var x, y float64
	for k, i := int32(0), head; k < n; k++ {
		sin, cos := geo.SinCosDeg(headings[i])
		x += speeds[i] * sin
		y += speeds[i] * cos
		if i++; i == int32(len(speeds)) {
			i = 0
		}
	}
	if x != 0 || y != 0 {
		return geo.HeadingFromComponents(x, y)
	}
	return 0
}

// resetStopAgg clears the stop-run incremental aggregates.
func (st *vesselState) resetStopAgg() {
	st.stopSumLon, st.stopSumLat = 0, 0
	st.stopMinLon, st.stopMaxLon = 0, 0
	st.stopMinLat, st.stopMaxLat = 0, 0
}

// pushStopAgg folds one appended run member into the aggregates,
// preserving left-to-right summation order so the cached sums equal a
// fresh front-to-back recomputation bit for bit.
func (st *vesselState) pushStopAgg(pos geo.Point, first bool) {
	if first {
		st.stopSumLon, st.stopSumLat = pos.Lon, pos.Lat
		st.stopMinLon, st.stopMaxLon = pos.Lon, pos.Lon
		st.stopMinLat, st.stopMaxLat = pos.Lat, pos.Lat
		return
	}
	st.stopSumLon += pos.Lon
	st.stopSumLat += pos.Lat
	if pos.Lon < st.stopMinLon {
		st.stopMinLon = pos.Lon
	}
	if pos.Lon > st.stopMaxLon {
		st.stopMaxLon = pos.Lon
	}
	if pos.Lat < st.stopMinLat {
		st.stopMinLat = pos.Lat
	}
	if pos.Lat > st.stopMaxLat {
		st.stopMaxLat = pos.Lat
	}
}

// rebuildStopAgg recomputes the aggregates front to back after the run
// shrank from the front — the only mutation that breaks incremental
// maintenance without changing the summation order.
func (st *vesselState) rebuildStopAgg() {
	for i, f := range st.stopRun {
		st.pushStopAgg(f.pos, i == 0)
	}
}

// stopCentroid returns the centroid implied by the cached sums,
// bit-identical to runCentroid over the current run.
func (st *vesselState) stopCentroid() geo.Point {
	n := float64(len(st.stopRun))
	return geo.Point{Lon: st.stopSumLon / n, Lat: st.stopSumLat / n}
}

// stopWithin reports whether every run member lies within radius meters
// of the run centroid — the same answer withinRadius gave the row path.
// A conservative spherical L1 bound over the run's bounding box settles
// the common case (a tight anchorage drift) without touching the run;
// only runs brushing the radius fall back to the exact per-point scan,
// which takes the centroid's latitude cosine once.
func (st *vesselState) stopWithin(radius float64) bool {
	c := st.stopCentroid()
	dLat := max(st.stopMaxLat-c.Lat, c.Lat-st.stopMinLat)
	dLon := max(st.stopMaxLon-c.Lon, c.Lon-st.stopMinLon)
	// The 0.999 slack absorbs the bound's own floating-point rounding:
	// the fast path may only fire when containment is guaranteed.
	if geo.L1DistanceBoundMeters(dLat, dLon) <= 0.999*radius {
		return true
	}
	cosC := geo.LatTrigOf(c).Cos
	for _, f := range st.stopRun {
		if geo.HaversineCos(c, f.pos, cosC, geo.LatTrigOf(f.pos).Cos) > radius {
			return false
		}
	}
	return true
}

// updateStopRun maintains the long-term stop state machine: at least m
// consecutive low-speed positions within radius r of their centroid
// (paper Figure 3(c)).
func (tr *shard) updateStopRun(st *vesselState, pos geo.Point, tns int64, vNow geo.Velocity, moving bool) {
	p := &tr.params
	if !moving {
		st.pushStopAgg(pos, len(st.stopRun) == 0)
		st.stopRun = tr.appendRunFix(st.stopRun, runFix{pos: pos, tns: tns})
		// Shrink from the front until the run fits in radius r.
		for len(st.stopRun) > 1 && !st.stopWithin(p.StopRadiusMeters) {
			if st.stopped {
				// The vessel drifted out of the stop circle: close the
				// episode and start a fresh run at the current position.
				tr.endStop(st, tns)
				st.stopRun = append(st.stopRun[:0], runFix{pos: pos, tns: tns})
				st.pushStopAgg(pos, true)
				return
			}
			// Copy-shift instead of reslicing so the run keeps its backing
			// capacity: the allocation-free steady state depends on it.
			copy(st.stopRun, st.stopRun[1:])
			st.stopRun = st.stopRun[:len(st.stopRun)-1]
			st.rebuildStopAgg()
		}
		if !st.stopped && len(st.stopRun) >= p.M {
			st.stopped = true
			c := st.stopCentroid()
			tr.emit(st, CriticalPoint{
				MMSI: st.mmsi, Pos: c, Time: nsTime(st.stopRun[0].tns), Type: EventStopStart,
				Confidence: stopConfidenceAt(st.stopRun, c, p.StopRadiusMeters),
			})
		}
		return
	}
	if st.stopped {
		tr.endStop(st, tns)
	} else if len(st.stopRun) != 0 {
		// Skip the aggregate reset for cruising vessels whose run is
		// already empty — the common case on every moving fix.
		st.stopRun = st.stopRun[:0]
		st.resetStopAgg()
	}
}

// endStop emits the StopEnd point: the collapsed representation is the
// centroid of the episode with its total duration.
func (tr *shard) endStop(st *vesselState, endNS int64) {
	run := st.stopRun
	c := st.stopCentroid()
	cp := CriticalPoint{
		MMSI: st.mmsi, Pos: c, Time: nsTime(endNS), Type: EventStopEnd,
		Duration:   time.Duration(endNS - run[0].tns),
		Confidence: stopConfidenceAt(run, c, tr.params.StopRadiusMeters),
	}
	tr.emit(st, cp)
	st.stopped = false
	st.stopRun = st.stopRun[:0]
	st.resetStopAgg()
	// The stop is a departure point: distance-from-origin restarts here.
	st.departureM = 0
}

// updateSlowRun maintains the slow-motion state machine: at least m
// consecutive positions at low but nonzero speed, usually spread along a
// path (paper Figure 3(d)).
func (tr *shard) updateSlowRun(st *vesselState, pos geo.Point, tns int64, vNow geo.Velocity, moving bool) {
	p := &tr.params
	slowNow := moving && vNow.SpeedKnots <= p.VSlowKnots
	if slowNow {
		st.slowRun = tr.appendRunFix(st.slowRun, runFix{pos: pos, tns: tns})
		if !st.slow && len(st.slowRun) >= p.M {
			st.slow = true
			tr.emit(st, CriticalPoint{
				MMSI: st.mmsi, Pos: tr.runMedian(st.slowRun), Time: nsTime(st.slowRun[0].tns),
				Type: EventSlowStart, SpeedKn: vNow.SpeedKnots,
				Confidence: marginConfidence(p.VSlowKnots-vNow.SpeedKnots+p.VSlowKnots, p.VSlowKnots),
			})
		}
		if len(st.slowRun) > 4*p.M { // bound memory on long episodes
			st.slowRun = append(st.slowRun[:0], st.slowRun[len(st.slowRun)-p.M:]...)
		}
		return
	}
	if st.slow {
		tr.emit(st, CriticalPoint{
			MMSI: st.mmsi, Pos: tr.runMedian(st.slowRun), Time: nsTime(tns), Type: EventSlowEnd,
			Duration: time.Duration(tns - st.slowRun[0].tns),
		})
		st.slow = false
	}
	st.slowRun = st.slowRun[:0]
}

// closeRuns ends any open durative episodes at the vessel's last fix
// (endNS), used when a communication gap interrupts them.
func (tr *shard) closeRuns(st *vesselState, endNS int64) {
	if st.stopped {
		tr.endStop(st, endNS)
	}
	if st.slow {
		tr.emit(st, CriticalPoint{
			MMSI: st.mmsi, Pos: tr.runMedian(st.slowRun), Time: nsTime(endNS), Type: EventSlowEnd,
			Duration: time.Duration(endNS - st.slowRun[0].tns),
		})
		st.slow = false
	}
	st.stopRun = st.stopRun[:0]
	st.resetStopAgg()
	st.slowRun = st.slowRun[:0]
}

// detectGaps performs slide-time gap detection: a vessel silent for at
// least ΔT as of query time Q gets a gap-start critical point stamped at
// its last report (paper Figure 3(a)). Candidates were gathered by
// collectSweeps; they are swept in ascending MMSI order so the emission
// order is deterministic — the sharded tier merges per-shard gap
// emissions back into exactly this order.
func (tr *shard) detectGaps(q time.Time) {
	slices.SortFunc(tr.gapScan, func(a, b gapCand) int { return cmp.Compare(a.mmsi, b.mmsi) })
	for _, c := range tr.gapScan {
		st := &tr.slots[c.slot]
		tr.closeRuns(st, st.lastTNS)
		tr.emit(st, CriticalPoint{
			MMSI: c.mmsi, Pos: st.lastPos, Time: nsTime(st.lastTNS), Type: EventGapStart,
		})
		st.gapOpen = true
	}
}

// compareDelta orders the delta stream by time, then MMSI; equal keys
// can only come from one vessel's synopsis, whose order a stable sort
// preserves, so the sorted stream is fully deterministic. It compares in
// place: a CriticalPoint is 88 bytes.
func compareDelta(a, b *CriticalPoint) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	switch {
	case a.MMSI < b.MMSI:
		return -1
	case a.MMSI > b.MMSI:
		return 1
	}
	return 0
}

// deltaSortKey is the integer projection evict sorts instead of moving
// 80-byte CriticalPoints through a comparison sort. idx (the point's
// position in the unsorted delta) breaks ties, which makes a plain sort
// on keys equivalent to a stable sort on the points themselves.
type deltaSortKey struct {
	tns  int64
	mmsi uint32
	idx  int32
}

func compareDeltaKey(a, b deltaSortKey) int {
	switch {
	case a.tns < b.tns:
		return -1
	case a.tns > b.tns:
		return 1
	case a.mmsi < b.mmsi:
		return -1
	case a.mmsi > b.mmsi:
		return 1
	case a.idx < b.idx:
		return -1
	case a.idx > b.idx:
		return 1
	}
	return 0
}

// evict expires critical points older than the window range and removes
// vessels silent beyond it, returning the expired "delta" points in
// per-vessel time order. The returned slice is tracker-owned scratch,
// valid until the slide after next. Only the candidates collectSweeps gathered
// are visited; vessels whose oldest retained point is still inside the
// window were already settled by its cached oldest-point time. An
// evicted vessel hands over its whole synopsis and frees its slot.
func (tr *shard) evict(q time.Time) []CriticalPoint {
	cutoffNS := q.Add(-tr.window.Range).UnixNano()
	tr.delta = tr.delta[:0]
	for _, slot := range tr.evictScan {
		st := &tr.slots[slot]
		if st.lastTNS <= cutoffNS {
			tr.delta = append(tr.delta, st.synopsis.live()...)
			tr.release(slot)
		} else {
			tr.delta = st.expire(tr.delta, cutoffNS)
		}
	}
	// Candidate order follows slot order, which depends on the order
	// vessels arrived and left; keep the delta stream deterministic for
	// reproducible staging and archival (idx settles equal (time, MMSI)
	// keys, which can only come from one vessel's synopsis walk).
	// Sorting 16-byte integer keys and gathering once is cheaper than a
	// stable sort that swaps 88-byte points; the idx tiebreak reproduces stable order exactly (UnixNano
	// ordering coincides with Time ordering for any representable fix
	// timestamp).
	tr.deltaKey = tr.deltaKey[:0]
	for i := range tr.delta {
		tr.deltaKey = append(tr.deltaKey, deltaSortKey{
			tns: tr.delta[i].Time.UnixNano(), mmsi: tr.delta[i].MMSI, idx: int32(i),
		})
	}
	slices.SortFunc(tr.deltaKey, compareDeltaKey)
	tr.deltaOut = tr.deltaOut[:0]
	for _, k := range tr.deltaKey {
		tr.deltaOut = append(tr.deltaOut, tr.delta[k.idx])
	}
	return tr.deltaOut
}

// stopConfidenceAt grades a long-term stop by how tightly the run packs
// inside the radius: a run hugging the centroid is a confident stop, a
// run brushing the radius boundary less so. c is the run centroid the
// caller already derived from the cached sums.
func stopConfidenceAt(run []runFix, c geo.Point, radius float64) float64 {
	var worst float64
	cosC := geo.LatTrigOf(c).Cos
	for _, f := range run {
		if d := geo.HaversineCos(c, f.pos, cosC, geo.LatTrigOf(f.pos).Cos); d > worst {
			worst = d
		}
	}
	conf := 1 - worst/(2*radius)
	if conf < 0.5 {
		conf = 0.5
	}
	return conf
}

// runMedian returns the positionally central fix of the run: the
// representative critical point of a slow-motion episode (paper §3.1).
// It picks the fix minimizing the sum of distances to the others — the
// geometric median restricted to run members. A distance is symmetric
// bit for bit, so each pair is computed once, over latitude cosines
// taken once per member, and added to both members' sums; each sum
// still adds its terms in member order, so it equals the row-by-row sum
// exactly.
func (tr *shard) runMedian(run []runFix) geo.Point {
	if len(run) == 1 {
		return run[0].pos
	}
	sums := append(tr.medianSums[:0], make([]float64, 2*len(run))...)
	tr.medianSums = sums
	cos := sums[len(run):]
	sums = sums[:len(run)]
	for i := range run {
		cos[i] = geo.LatTrigOf(run[i].pos).Cos
	}
	for i := range run {
		a := &run[i]
		for j := i + 1; j < len(run); j++ {
			d := geo.HaversineCos(a.pos, run[j].pos, cos[i], cos[j])
			sums[i] += d
			sums[j] += d
		}
	}
	best, bestSum := 0, math.Inf(1)
	for i, sum := range sums {
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return run[best].pos
}

// synopsisBuf is a vessel's window synopsis: the critical points it
// retains, in emission order, each keyed by its own Time. Points arrive
// in near time order (a sweep's gap-start point is stamped at the
// vessel's last fix), and expiry drops only the prefix at or before the
// cutoff, so a delayed point deeper in the buffer expires on a later
// sweep, once the points ahead of it have gone. A full backing array is
// compacted in place when at least half of it is dead and otherwise
// regrown to twice the live points, so its capacity follows the
// window's contents, not the length of the stream.
type synopsisBuf struct {
	items []CriticalPoint
	head  int // index of the oldest live point
}

// minSynopsisCap is the capacity a synopsis starts at.
const minSynopsisCap = 8

func (b *synopsisBuf) len() int { return len(b.items) - b.head }

// live returns the live points, oldest first. The slice aliases the
// buffer.
func (b *synopsisBuf) live() []CriticalPoint { return b.items[b.head:] }

// oldestNS returns the oldest live point's time, or noSynopsis when the
// buffer is empty.
func (b *synopsisBuf) oldestNS() int64 {
	if b.head == len(b.items) {
		return noSynopsis
	}
	return b.items[b.head].Time.UnixNano()
}

// push appends a point.
func (b *synopsisBuf) push(cp *CriticalPoint) {
	if n := len(b.items); n == cap(b.items) {
		live := n - b.head
		if b.head > 0 && 2*b.head >= n {
			copy(b.items, b.items[b.head:])
			b.items = b.items[:live]
		} else {
			grown := make([]CriticalPoint, live, max(2*live, minSynopsisCap))
			copy(grown, b.items[b.head:])
			b.items = grown
		}
		b.head = 0
	}
	b.items = append(b.items, *cp)
}

// expire appends the prefix of points at or before cutoffNS to dst and
// drops it.
func (b *synopsisBuf) expire(dst []CriticalPoint, cutoffNS int64) []CriticalPoint {
	h := b.head
	for h < len(b.items) && b.items[h].Time.UnixNano() <= cutoffNS {
		h++
	}
	dst = append(dst, b.items[b.head:h]...)
	if h == len(b.items) {
		b.items, h = b.items[:0], 0
	}
	b.head = h
	return dst
}
