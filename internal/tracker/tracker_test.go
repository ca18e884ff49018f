package tracker

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/stream"
)

var t0 = time.Date(2009, 6, 1, 6, 0, 0, 0, time.UTC)

const mmsi = uint32(237000001)

// legFrom appends n fixes sailing from the last fix's position (or start
// when fixes is empty) on the given heading and speed, one fix every dt.
func legFrom(fixes []ais.Fix, start geo.Point, heading, speedKn float64, n int, dt time.Duration) []ais.Fix {
	pos := start
	t := t0
	if len(fixes) > 0 {
		pos = fixes[len(fixes)-1].Pos
		t = fixes[len(fixes)-1].Time
	}
	step := geo.KnotsToMetersPerSecond(speedKn) * dt.Seconds()
	for i := 0; i < n; i++ {
		t = t.Add(dt)
		pos = geo.Destination(pos, heading, step)
		fixes = append(fixes, ais.Fix{MMSI: mmsi, Pos: pos, Time: t})
	}
	return fixes
}

// dwellAt appends n stationary fixes at the last position.
func dwellAt(fixes []ais.Fix, n int, dt time.Duration) []ais.Fix {
	pos := fixes[len(fixes)-1].Pos
	t := fixes[len(fixes)-1].Time
	for i := 0; i < n; i++ {
		t = t.Add(dt)
		fixes = append(fixes, ais.Fix{MMSI: mmsi, Pos: pos, Time: t})
	}
	return fixes
}

// runAll feeds all fixes as slide batches and returns every fresh
// critical point plus the tracker for further inspection.
func runAll(t *testing.T, fixes []ais.Fix, params Params, window stream.WindowSpec) ([]CriticalPoint, *Sharded) {
	t.Helper()
	tr := NewSharded(params, window, 1)
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), window.Slide)
	var out []CriticalPoint
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		res := tr.Slide(b)
		out = append(out, res.Fresh...)
	}
	return out, tr
}

func countType(points []CriticalPoint, et EventType) int {
	n := 0
	for _, cp := range points {
		if cp.Type == et {
			n++
		}
	}
	return n
}

func defaultWindow() stream.WindowSpec {
	return stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
}

func TestStraightCruiseEmitsOnlyFirst(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 60, 30*time.Second)
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	if got := countType(points, EventFirst); got != 1 {
		t.Errorf("first points = %d, want 1", got)
	}
	// A perfectly straight constant-speed course contributes nothing else.
	if len(points) != 1 {
		t.Errorf("critical points = %d (%v), want 1", len(points), points)
	}
}

func TestSharpTurnDetected(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 20, 30*time.Second)
	fixes = legFrom(fixes, origin, 135, 12, 20, 30*time.Second) // 45° turn
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	if got := countType(points, EventTurn); got != 1 {
		t.Errorf("turns = %d, want 1", got)
	}
}

func TestSmoothTurnAccumulates(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 10, 30*time.Second)
	// Eight successive 4° heading changes: each below Δθ=15°, together 32°.
	h := 90.0
	for i := 0; i < 8; i++ {
		h += 4
		fixes = legFrom(fixes, origin, h, 12, 1, 30*time.Second)
	}
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	if countType(points, EventTurn) != 0 {
		t.Errorf("sharp turns detected for 4° steps")
	}
	if got := countType(points, EventSmoothTurn); got < 1 {
		t.Errorf("smooth turns = %d, want >= 1", got)
	}
}

func TestLongTermStop(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 15, 30*time.Second)
	fixes = dwellAt(fixes, 20, 30*time.Second) // 10 minutes at rest
	fixes = legFrom(fixes, origin, 90, 12, 15, 30*time.Second)
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	if got := countType(points, EventStopStart); got != 1 {
		t.Fatalf("stop starts = %d, want 1 (points: %v)", got, points)
	}
	if got := countType(points, EventStopEnd); got != 1 {
		t.Fatalf("stop ends = %d, want 1", got)
	}
	// The collapsed stop must carry a plausible duration (~10 min).
	for _, cp := range points {
		if cp.Type == EventStopEnd {
			if cp.Duration < 8*time.Minute || cp.Duration > 12*time.Minute {
				t.Errorf("stop duration = %v, want ~10m", cp.Duration)
			}
		}
	}
}

func TestStopCentroidNearAnchorage(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 10, 10, 30*time.Second)
	anchor := fixes[len(fixes)-1].Pos
	fixes = dwellAt(fixes, 15, 30*time.Second)
	fixes = legFrom(fixes, origin, 90, 10, 5, 30*time.Second)
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	for _, cp := range points {
		if cp.Type == EventStopStart || cp.Type == EventStopEnd {
			if d := geo.Haversine(cp.Pos, anchor); d > 50 {
				t.Errorf("%v centroid %.0f m from anchorage", cp.Type, d)
			}
		}
	}
}

func TestSlowMotion(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 15, 30*time.Second)
	fixes = legFrom(fixes, origin, 90, 3, 15, 30*time.Second) // trawling speed
	fixes = legFrom(fixes, origin, 90, 12, 15, 30*time.Second)
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	if got := countType(points, EventSlowStart); got != 1 {
		t.Fatalf("slow starts = %d, want 1", got)
	}
	if got := countType(points, EventSlowEnd); got != 1 {
		t.Fatalf("slow ends = %d, want 1", got)
	}
}

func TestSlowMotionIsNotAStop(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	// 3 knots spreads ~46 m per 30 s: after a few fixes the run leaves
	// the 200 m stop radius, so no stop may be reported.
	fixes := legFrom(nil, origin, 90, 12, 15, 30*time.Second)
	fixes = legFrom(fixes, origin, 90, 3, 30, 30*time.Second)
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	if got := countType(points, EventStopStart); got != 0 {
		t.Errorf("stops during slow motion = %d, want 0", got)
	}
}

func TestGapAcrossBatches(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 10, 30*time.Second)
	lastBefore := fixes[len(fixes)-1]
	// 25 minutes of silence, then resume.
	resume := legFrom(fixes[:len(fixes):len(fixes)], lastBefore.Pos, 90, 12, 10, 30*time.Second)
	for i := range resume[len(fixes):] {
		resume[len(fixes)+i].Time = resume[len(fixes)+i].Time.Add(25 * time.Minute)
	}
	points, _ := runAll(t, resume, DefaultParams(), defaultWindow())
	starts := countType(points, EventGapStart)
	ends := countType(points, EventGapEnd)
	if starts != 1 || ends != 1 {
		t.Fatalf("gap starts/ends = %d/%d, want 1/1", starts, ends)
	}
	for _, cp := range points {
		if cp.Type == EventGapStart {
			if !cp.Time.Equal(lastBefore.Time) {
				t.Errorf("gap start stamped %v, want last report %v", cp.Time, lastBefore.Time)
			}
			if cp.Pos != lastBefore.Pos {
				t.Errorf("gap start at %v, want last position %v", cp.Pos, lastBefore.Pos)
			}
		}
	}
}

func TestGapDetectedAtSlideBoundaryWhileSilent(t *testing.T) {
	// Vessel reports, then goes silent forever: the slide-time check must
	// emit a gap start without any resuming fix.
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 5, 30*time.Second)
	tr := NewSharded(DefaultParams(), defaultWindow(), 1)
	res := tr.Slide(stream.Batch{Fixes: fixes, Query: t0.Add(5 * time.Minute)})
	if countType(res.Fresh, EventGapStart) != 0 {
		t.Fatal("premature gap")
	}
	// Empty slides pass; gap period is 10 minutes.
	total := countType(tr.Slide(stream.Batch{Query: t0.Add(10 * time.Minute)}).Fresh, EventGapStart)
	total += countType(tr.Slide(stream.Batch{Query: t0.Add(15 * time.Minute)}).Fresh, EventGapStart)
	if total != 1 {
		t.Errorf("gap starts across silent slides = %d, want 1", total)
	}
}

func TestSpeedChange(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 10, 15, 30*time.Second)
	fixes = legFrom(fixes, origin, 90, 20, 15, 30*time.Second) // +100%
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	if got := countType(points, EventSpeedChange); got != 1 {
		t.Errorf("speed changes = %d, want 1", got)
	}
}

func TestOutlierRejected(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 20, 30*time.Second)
	// Displace one mid-course fix 2 km sideways: an impossible jump.
	mid := len(fixes) / 2
	fixes[mid].Pos = geo.Destination(fixes[mid].Pos, 0, 2000)
	points, tr := runAll(t, fixes, DefaultParams(), defaultWindow())
	if tr.Stats().Outliers == 0 {
		t.Error("no outlier counted")
	}
	// The outlier must not have produced any turn or speed-change point.
	if n := countType(points, EventTurn) + countType(points, EventSpeedChange); n != 0 {
		t.Errorf("outlier leaked %d critical points", n)
	}
}

func TestOutlierFilterAblation(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 20, 30*time.Second)
	mid := len(fixes) / 2
	fixes[mid].Pos = geo.Destination(fixes[mid].Pos, 0, 2000)
	params := DefaultParams()
	params.DisableOutlierFilter = true
	points, tr := runAll(t, fixes, params, defaultWindow())
	if tr.Stats().Outliers != 0 {
		t.Error("outliers counted despite disabled filter")
	}
	// Without the filter the bogus jump pollutes the synopsis.
	if n := countType(points, EventTurn) + countType(points, EventSpeedChange); n == 0 {
		t.Error("disabled filter produced no spurious events — ablation is vacuous")
	}
}

func TestOutlierRunResync(t *testing.T) {
	// A genuine course change must not be suppressed forever: after
	// OutlierRunLimit consecutive rejections the tracker resynchronizes.
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 8, 15, 30*time.Second)
	// Vessel suddenly speeds to 40 knots on a reversed course.
	fixes = legFrom(fixes, origin, 270, 40, 15, 30*time.Second)
	_, tr := runAll(t, fixes, DefaultParams(), defaultWindow())
	st := tr.vessel(mmsi)
	if st == nil {
		t.Fatal("vessel state evicted unexpectedly")
	}
	// After resync the tracked position must be on the new course (i.e.
	// recent fixes accepted again).
	if tr.Stats().Outliers >= 10 {
		t.Errorf("tracker kept rejecting after the course change: %d outliers", tr.Stats().Outliers)
	}
}

func TestDuplicateTimestampsDropped(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 10, 30*time.Second)
	dup := fixes[5]
	fixes = append(fixes[:6], append([]ais.Fix{dup}, fixes[6:]...)...)
	_, tr := runAll(t, fixes, DefaultParams(), defaultWindow())
	if tr.Stats().Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", tr.Stats().Duplicates)
	}
}

func TestEvictionProducesDelta(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	window := stream.WindowSpec{Range: 10 * time.Minute, Slide: 5 * time.Minute}
	fixes := legFrom(nil, origin, 90, 12, 10, 30*time.Second) // 5 minutes of cruise
	tr := NewSharded(DefaultParams(), window, 1)
	res := tr.Slide(stream.Batch{Fixes: fixes, Query: t0.Add(5 * time.Minute)})
	if len(res.Fresh) == 0 {
		t.Fatal("no fresh points")
	}
	// Slide forward until everything expires.
	var delta []CriticalPoint
	for i := 2; i <= 6; i++ {
		r := tr.Slide(stream.Batch{Query: t0.Add(time.Duration(i*5) * time.Minute)})
		delta = append(delta, r.Delta...)
	}
	// All emitted points (including the gap start emitted when the vessel
	// went silent) must eventually expire into the delta stream.
	if len(delta) < len(res.Fresh) {
		t.Errorf("delta = %d points, want >= %d", len(delta), len(res.Fresh))
	}
	if tr.VesselCount() != 0 {
		t.Errorf("vessel state not evicted after silence > ω")
	}
	// Delta must be time-ordered.
	for i := 1; i < len(delta); i++ {
		if delta[i].Time.Before(delta[i-1].Time) {
			t.Fatal("delta stream not time-ordered")
		}
	}
}

func TestSynopsisAccessor(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 10, 30*time.Second)
	fixes = legFrom(fixes, origin, 150, 12, 10, 30*time.Second)
	tr := NewSharded(DefaultParams(), defaultWindow(), 1)
	tr.Slide(stream.Batch{Fixes: fixes, Query: t0.Add(10 * time.Minute)})
	syn := tr.Synopsis(mmsi)
	if len(syn) < 2 {
		t.Fatalf("synopsis = %d points, want >= 2 (first + turn)", len(syn))
	}
	if tr.Synopsis(999) != nil {
		t.Error("synopsis for unknown vessel should be nil")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for invalid params")
		}
	}()
	NewSharded(Params{}, defaultWindow(), 1)
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{VMinKnots: 0},
		func() Params { p := DefaultParams(); p.VSlowKnots = 0.5; return p }(),
		func() Params { p := DefaultParams(); p.SpeedChangeFrac = 0; return p }(),
		func() Params { p := DefaultParams(); p.GapPeriod = 0; return p }(),
		func() Params { p := DefaultParams(); p.TurnThresholdDeg = 190; return p }(),
		func() Params { p := DefaultParams(); p.StopRadiusMeters = -1; return p }(),
		func() Params { p := DefaultParams(); p.M = 1; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestStatsCompressionRatio(t *testing.T) {
	s := Stats{FixesIn: 100, Critical: 6}
	if got := s.CompressionRatio(); got != 0.94 {
		t.Errorf("ratio = %v, want 0.94", got)
	}
	if (Stats{}).CompressionRatio() != 0 {
		t.Error("empty stats ratio should be 0")
	}
}

func TestTurnConfidenceGrowsWithSharpness(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	confOf := func(turnDeg float64) float64 {
		fixes := legFrom(nil, origin, 90, 12, 15, 30*time.Second)
		fixes = legFrom(fixes, origin, 90+turnDeg, 12, 15, 30*time.Second)
		points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
		for _, cp := range points {
			if cp.Type == EventTurn {
				return cp.Confidence
			}
		}
		t.Fatalf("no turn detected for %v°", turnDeg)
		return 0
	}
	gentle := confOf(18) // barely past Δθ=15
	sharp := confOf(80)
	if gentle < 0.5 || gentle > 0.7 {
		t.Errorf("barely-threshold turn confidence = %v, want ≈0.5–0.7", gentle)
	}
	if sharp != 1 {
		t.Errorf("sharp turn confidence = %v, want 1", sharp)
	}
	if sharp <= gentle {
		t.Errorf("confidence not monotone in sharpness: %v vs %v", gentle, sharp)
	}
}

func TestStopConfidenceReflectsTightness(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 10, 30*time.Second)
	fixes = dwellAt(fixes, 15, 30*time.Second) // perfectly tight stop
	fixes = legFrom(fixes, origin, 90, 12, 5, 30*time.Second)
	points, _ := runAll(t, fixes, DefaultParams(), defaultWindow())
	for _, cp := range points {
		if cp.Type == EventStopStart || cp.Type == EventStopEnd {
			if cp.Confidence < 0.9 {
				t.Errorf("%v confidence = %v for a zero-drift stop, want ≈1", cp.Type, cp.Confidence)
			}
		}
	}
}

func TestGapPointsAreCertain(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	fixes := legFrom(nil, origin, 90, 12, 5, 30*time.Second)
	last := fixes[len(fixes)-1]
	resumed := legFrom(fixes[:len(fixes):len(fixes)], last.Pos, 90, 12, 5, 30*time.Second)
	for i := range resumed[len(fixes):] {
		resumed[len(fixes)+i].Time = resumed[len(fixes)+i].Time.Add(20 * time.Minute)
	}
	points, _ := runAll(t, resumed, DefaultParams(), defaultWindow())
	for _, cp := range points {
		if cp.Type == EventGapStart || cp.Type == EventGapEnd {
			if cp.Confidence != 0 && cp.Confidence != 1 {
				t.Errorf("%v confidence = %v, gaps are certain", cp.Type, cp.Confidence)
			}
		}
	}
}

func TestOdometer(t *testing.T) {
	origin := geo.Point{Lon: 24, Lat: 37.5}
	// 30 minutes at 12 knots ≈ 11.1 km, then a 10-minute stop, then
	// 15 more minutes at 12 knots ≈ 5.6 km.
	fixes := legFrom(nil, origin, 90, 12, 60, 30*time.Second)
	fixes = dwellAt(fixes, 20, 30*time.Second)
	fixes = legFrom(fixes, origin, 90, 12, 30, 30*time.Second)
	_, tr := runAll(t, fixes, DefaultParams(), defaultWindow())

	total, sinceDep, ok := tr.Odometer(mmsi)
	if !ok {
		t.Fatal("no odometer for tracked vessel")
	}
	leg1 := geo.KnotsToMetersPerSecond(12) * 30 * 60
	leg2 := geo.KnotsToMetersPerSecond(12) * 15 * 60
	if total < (leg1+leg2)*0.95 || total > (leg1+leg2)*1.05 {
		t.Errorf("total odometer = %.0f m, want ≈%.0f", total, leg1+leg2)
	}
	// Distance since departure restarted at the stop's end.
	if sinceDep < leg2*0.9 || sinceDep > leg2*1.1 {
		t.Errorf("since-departure = %.0f m, want ≈%.0f", sinceDep, leg2)
	}
	if _, _, ok := tr.Odometer(424242); ok {
		t.Error("odometer for unknown vessel")
	}
}

// TestRunRepresentativesMatchUncached pins the run representatives to
// their row-by-row form on random runs: runMedian (each pair computed
// once, over cosines taken once per member) reaches every member's
// distance sum bit for bit and picks the member the full double loop of
// Haversine calls picks, and stopConfidenceAt grades as a Haversine
// scan does.
func TestRunRepresentativesMatchUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := &shard{}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(45)
		base := geo.Point{Lon: rng.Float64()*360 - 180, Lat: rng.Float64()*170 - 85}
		spread := []float64{1e-5, 1e-3, 0.05}[trial%3]
		run := make([]runFix, n)
		for i := range run {
			p := geo.Point{Lon: base.Lon + (rng.Float64()-0.5)*spread, Lat: base.Lat + (rng.Float64()-0.5)*spread}
			if i > 0 && rng.Intn(8) == 0 {
				p = run[rng.Intn(i)].pos // coincident members tie
			}
			run[i] = runFix{pos: p, tns: int64(i)}
		}
		want, bestSum := run[0].pos, math.Inf(1)
		sums := make([]float64, n)
		for i := range run {
			sum := 0.0
			for j := range run {
				if i != j {
					sum += geo.Haversine(run[i].pos, run[j].pos)
				}
			}
			sums[i] = sum
			if sum < bestSum {
				want, bestSum = run[i].pos, sum
			}
		}
		if got := tr.runMedian(run); got != want {
			t.Fatalf("trial %d: runMedian = %v, uncached double loop picks %v", trial, got, want)
		}
		if n > 1 {
			for i, sum := range sums {
				if tr.medianSums[i] != sum {
					t.Fatalf("trial %d: member %d's distance sum %v, row by row %v", trial, i, tr.medianSums[i], sum)
				}
			}
		}
		c := base
		var worst float64
		for _, f := range run {
			worst = max(worst, geo.Haversine(c, f.pos))
		}
		radius := 50 + rng.Float64()*500
		if got, wantConf := stopConfidenceAt(run, c, radius), max(1-worst/(2*radius), 0.5); got != wantConf {
			t.Fatalf("trial %d: stopConfidenceAt = %v, uncached %v", trial, got, wantConf)
		}
	}
}
