package tracker

import (
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
type shard struct {
	params  Params
	window  stream.WindowSpec
	vessels map[uint32]*vesselState
	stats   Stats

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
	gapScan    []uint32
	evictScan  []uint32

	// Emission indexing, on when the tier has more than one shard:
	// freshIdx records, parallel to fresh, the batch index of the fix
	// that triggered each emission, so the merge can restore global
	// batch order exactly. curIdx is the index of the fix being ingested
	// (gapSentinel outside ingest).
	indexing bool
	curIdx   int32
	freshIdx []int32

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

// gapSentinel tags emissions not attributable to a fix: the slide-time
// gap sweep runs after every fix of the batch, so its emissions sort
// after all ingest-time ones.
const gapSentinel = int32(1<<31 - 1)

// nsTime rebuilds the time.Time for an internal nanosecond clock value.
// For UTC instants within time.Unix's normalization range this yields a
// struct identical to the original fix time.
func nsTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// velEntry is one sample of the recent-velocity window. Heading trig is
// not cached here: the outlier gate's speed test rejects almost every
// fix before the heading fold runs, so SinCosDeg is paid per entry only
// inside that rare fold (recentMeanHeading) instead of once per ingested
// fix.
type velEntry struct {
	v geo.Velocity
}

// runFix is one member of a stop or slow run: position plus nanosecond
// timestamp.
type runFix struct {
	pos geo.Point
	tns int64
}

// vesselState is the per-vessel in-memory motion state: the scalar
// core plus the windows and runs the detectors fold over.
type vesselState struct {
	vesselCore

	recent      []velEntry // up to M latest velocity vectors (mean course)
	recentTurns []float64  // signed heading deltas of the last m steps

	// Long-term stop run: consecutive low-speed fixes (its aggregates
	// live in the core).
	stopRun []runFix
	// Slow-motion run: consecutive slow (but moving) fixes.
	slowRun []runFix

	synopsis stream.TimeBuffer[CriticalPoint]
}

// vesselCore is the pointer-free part of a vessel's state.
type vesselCore struct {
	mmsi     uint32
	haveLast bool
	lastPos  geo.Point
	lastTNS  int64
	lastTrig geo.LatTrig // sin/cos of lastPos.Lat, cached for the next hop

	vPrev geo.Velocity
	haveV bool

	outlierRun int
	gapOpen    bool

	// Long-term stop state, with incremental centroid sums and a
	// bounding box over the stop run so the within-radius check is O(1)
	// when the run obviously fits (see stopWithin).
	stopped    bool
	stopSumLon float64
	stopSumLat float64
	stopMinLon float64
	stopMaxLon float64
	stopMinLat float64
	stopMaxLat float64

	slow bool

	// Odometers (the §3.1 extension the paper plans: "capture additional
	// features, such as traveled distance from a given origin"): total
	// accepted-hop distance, and distance since the vessel last departed
	// — i.e. since its last long-term stop ended.
	odometerM  float64
	departureM float64

	lastSeenNS int64
	haveSeen   bool
}

// setLast advances the vessel clock and position, caching the latitude
// trig for the next hop.
func (st *vesselState) setLast(pos geo.Point, tns int64, trig geo.LatTrig) {
	st.lastPos = pos
	st.lastTNS = tns
	st.lastTrig = trig
	st.lastSeenNS = tns
	st.haveSeen = true
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
// emission indexing records), then runs the slide-time gap sweep
// and window eviction. It returns the offset into fresh where the
// gap-sweep emissions start (they are ordered by MMSI, while
// fresh[:gapStart] is ordered by triggering fix) and the expired delta
// points. Both fresh and delta are shard-owned scratch, valid until the
// slide after next.
func (tr *shard) slide(in shardIn, q time.Time) (gapStart int, delta []CriticalPoint) {
	tr.fresh, tr.spareFresh = tr.spareFresh[:0], tr.fresh
	tr.deltaOut, tr.spareDelta = tr.spareDelta, tr.deltaOut
	tr.freshIdx = tr.freshIdx[:0]
	tr.shedding = in.shed
	for _, r := range in.recs {
		tr.curIdx = r.idx
		tr.ingest(r.mmsi, r.lon, r.lat, r.ns)
	}
	tr.curIdx = gapSentinel
	gapStart = len(tr.fresh)
	tr.collectSweeps(q)
	tr.detectGaps(q)
	delta = tr.evict(q)
	tr.lastQueryNS = q.UnixNano()
	tr.haveLastQ = true
	return gapStart, delta
}

// collectSweeps walks the vessel map once, gathering the candidates of
// both slide-closing phases: vessels due a gap-start emission and
// vessels with window-expired synopsis points or stale state. Collecting
// before the gap sweep runs is exact: sweep emissions are stamped at a
// vessel's last-fix time, so a vessel whose clock is inside the window
// range cannot gain expired points from the sweep, and one whose clock
// is outside it is already a full-eviction candidate.
func (tr *shard) collectSweeps(q time.Time) {
	qns := q.UnixNano()
	gapNS := int64(tr.params.GapPeriod)
	cutoff := q.Add(-tr.window.Range)
	cutoffNS := cutoff.UnixNano()
	tr.gapScan = tr.gapScan[:0]
	tr.evictScan = tr.evictScan[:0]
	for mmsi, st := range tr.vessels {
		if st.haveLast && !st.gapOpen && qns-st.lastTNS >= gapNS {
			tr.gapScan = append(tr.gapScan, mmsi)
		}
		if st.lastSeenNS <= cutoffNS {
			tr.evictScan = append(tr.evictScan, mmsi)
		} else if ts, ok := st.synopsis.Oldest(); ok && !ts.After(cutoff) {
			tr.evictScan = append(tr.evictScan, mmsi)
		}
	}
}

// emit records a critical point.
func (tr *shard) emit(st *vesselState, cp CriticalPoint) {
	tr.stats.Critical++
	tr.stats.ByType[cp.Type]++
	tr.fresh = append(tr.fresh, cp)
	if tr.indexing {
		tr.freshIdx = append(tr.freshIdx, tr.curIdx)
	}
	st.synopsis.Append(cp.Time, cp)
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

// ingest processes one fix given as scalar values.
func (tr *shard) ingest(mmsi uint32, lon, lat float64, tns int64) {
	tr.stats.FixesIn++
	st := tr.vessels[mmsi]
	if st == nil {
		// Presize the ring-style scratch to its steady-state capacity (the
		// recent/turn windows are bounded by M; stop and slow runs hover
		// around it) so a new vessel does not pay a growslice ladder on its
		// first dozen fixes.
		m := tr.params.M
		st = &vesselState{
			vesselCore:  vesselCore{mmsi: mmsi},
			recent:      make([]velEntry, 0, m),
			recentTurns: make([]float64, 0, m),
			stopRun:     make([]runFix, 0, 2*m),
			slowRun:     make([]runFix, 0, 2*m),
		}
		tr.vessels[mmsi] = st
	}
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
		st.recent = st.recent[:0]
		st.recentTurns = st.recentTurns[:0]
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

	// Off-course outlier rejection (paper Figure 2(d)): an abrupt change
	// in both speed and heading relative to the mean velocity over the
	// previous m positions marks a temporary deviation to discard. The
	// absolute speed floor is checked first so the mean fold only runs
	// for fixes fast enough to ever be outliers.
	if !p.DisableOutlierFilter && vNow.SpeedKnots > p.OutlierMinKnots && len(st.recent) >= p.M/2 {
		// The speed test alone settles nearly every fix; the heading fold
		// (per-entry trig plus an atan2) only runs once the speed factor
		// is exceeded. Short-circuit order matches the combined fold, so
		// accepted/rejected decisions are identical.
		ref := max(recentMeanSpeed(st.recent), 1)
		if vNow.SpeedKnots > p.OutlierSpeedFactor*ref &&
			geo.HeadingDelta(vNow.HeadingDeg, recentMeanHeading(st.recent)) > p.OutlierHeadingDeg {
			st.outlierRun++
			if st.outlierRun < p.OutlierRunLimit {
				tr.stats.Outliers++
				return
			}
			// Too many consecutive rejections: the course truly
			// changed. Resynchronize on this fix.
			st.recent = st.recent[:0]
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
			st.recentTurns = st.recentTurns[:0]
		} else {
			// Small individual changes may cumulatively signify a smooth
			// turn (paper Figure 3(b)): the cumulative change in heading
			// across the m most recent positions exceeding Δθ. Bounding
			// the accumulation window keeps the slow bearing drift of
			// long legs from masking genuine course changes.
			if len(st.recentTurns) == p.M {
				copy(st.recentTurns, st.recentTurns[1:])
				st.recentTurns = st.recentTurns[:p.M-1]
			}
			st.recentTurns = append(st.recentTurns, delta)
			var cum float64
			for _, d := range st.recentTurns {
				cum += d
			}
			if math.Abs(cum) > p.TurnThresholdDeg {
				tr.emit(st, CriticalPoint{
					MMSI: mmsi, Pos: pos, Time: nsTime(tns), Type: EventSmoothTurn,
					SpeedKn: vNow.SpeedKnots, HeadingDeg: vNow.HeadingDeg,
					Confidence: marginConfidence(math.Abs(cum), p.TurnThresholdDeg),
				})
				st.recentTurns = st.recentTurns[:0]
			}
		}
	} else {
		st.recentTurns = st.recentTurns[:0]
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

	if len(st.recent) == p.M {
		copy(st.recent, st.recent[1:])
		st.recent = st.recent[:p.M-1]
	}
	st.recent = append(st.recent, velEntry{v: vNow})
	st.vPrev = vNow
	st.haveV = true
	st.setLast(pos, tns, trig)
}

// recentMeanSpeed folds just the speed half of the recent-velocity window,
// accumulating in the same order geo.MeanVelocity would, so the result
// is bit-identical to its SpeedKnots.
func recentMeanSpeed(vs []velEntry) float64 {
	var speed float64
	for i := range vs {
		speed += vs[i].v.SpeedKnots
	}
	return speed / float64(len(vs))
}

// recentMeanHeading folds the heading half of the recent-velocity window,
// bit-identical to geo.MeanVelocity's HeadingDeg over the same samples:
// SinCosDeg returns exactly what the per-sample Sin/Cos calls would
// (pinned by the geo trig tests), and the zero-vector case yields the
// same zero heading.
func recentMeanHeading(vs []velEntry) float64 {
	var x, y float64
	for i := range vs {
		sin, cos := geo.SinCosDeg(vs[i].v.HeadingDeg)
		x += vs[i].v.SpeedKnots * sin
		y += vs[i].v.SpeedKnots * cos
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
// only runs brushing the radius fall back to the exact per-point scan.
func (st *vesselState) stopWithin(radius float64) bool {
	c := st.stopCentroid()
	dLat := max(st.stopMaxLat-c.Lat, c.Lat-st.stopMinLat)
	dLon := max(st.stopMaxLon-c.Lon, c.Lon-st.stopMinLon)
	// The 0.999 slack absorbs the bound's own floating-point rounding:
	// the fast path may only fire when containment is guaranteed.
	if geo.L1DistanceBoundMeters(dLat, dLon) <= 0.999*radius {
		return true
	}
	for _, f := range st.stopRun {
		if geo.Haversine(c, f.pos) > radius {
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
		st.stopRun = append(st.stopRun, runFix{pos: pos, tns: tns})
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
		st.slowRun = append(st.slowRun, runFix{pos: pos, tns: tns})
		if !st.slow && len(st.slowRun) >= p.M {
			st.slow = true
			tr.emit(st, CriticalPoint{
				MMSI: st.mmsi, Pos: runMedian(st.slowRun), Time: nsTime(st.slowRun[0].tns),
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
			MMSI: st.mmsi, Pos: runMedian(st.slowRun), Time: nsTime(tns), Type: EventSlowEnd,
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
			MMSI: st.mmsi, Pos: runMedian(st.slowRun), Time: nsTime(endNS), Type: EventSlowEnd,
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
	slices.Sort(tr.gapScan)
	for _, mmsi := range tr.gapScan {
		st := tr.vessels[mmsi]
		tr.closeRuns(st, st.lastTNS)
		tr.emit(st, CriticalPoint{
			MMSI: mmsi, Pos: st.lastPos, Time: nsTime(st.lastTNS), Type: EventGapStart,
		})
		st.gapOpen = true
	}
}

// compareDelta orders the delta stream by time, then MMSI; equal keys
// can only come from one vessel's synopsis, whose order a stable sort
// preserves, so the sorted stream is fully deterministic.
func compareDelta(a, b CriticalPoint) int {
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
// window were already settled by its head peek.
func (tr *shard) evict(q time.Time) []CriticalPoint {
	cutoff := q.Add(-tr.window.Range)
	cutoffNS := cutoff.UnixNano()
	tr.delta = tr.delta[:0]
	for _, mmsi := range tr.evictScan {
		st := tr.vessels[mmsi]
		if ts, ok := st.synopsis.Oldest(); ok && !ts.After(cutoff) {
			st.synopsis.Each(func(ts time.Time, cp CriticalPoint) bool {
				if ts.After(cutoff) {
					return false
				}
				tr.delta = append(tr.delta, cp)
				return true
			})
			st.synopsis.EvictBefore(cutoff)
		}
		if st.lastSeenNS <= cutoffNS {
			tr.delta = st.synopsis.AppendValues(tr.delta)
			delete(tr.vessels, mmsi)
		}
	}
	// Candidate order follows map iteration, which is random; keep the
	// delta stream deterministic for reproducible staging and archival
	// (idx settles equal (time, MMSI) keys, which can only come from one
	// vessel's synopsis walk). Sorting 16-byte integer keys
	// and gathering once is cheaper than a stable sort that swaps 80-byte
	// points; the idx tiebreak reproduces stable order exactly (UnixNano
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
	for _, f := range run {
		if d := geo.Haversine(c, f.pos); d > worst {
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
// geometric median restricted to run members.
func runMedian(run []runFix) geo.Point {
	if len(run) == 1 {
		return run[0].pos
	}
	best, bestSum := 0, math.Inf(1)
	for i := range run {
		sum := 0.0
		for j := range run {
			if i != j {
				sum += geo.Haversine(run[i].pos, run[j].pos)
			}
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return run[best].pos
}
