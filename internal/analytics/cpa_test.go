package analytics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/tracker"
)

// screen runs the collision screen over the tier's current vessel state
// at q, as Slide does.
func (t *Tier) screen(q time.Time) []encounter {
	return t.cpa.encounters(&t.cfg.Collision, t.vstates, q)
}

// sight is a critical point at t0 establishing a course: the vessel sits
// at pos moving on heading at speedKn.
func sight(mmsi uint32, pos geo.Point, heading, speedKn float64) tracker.CriticalPoint {
	return cp(mmsi, pos, t0, tracker.EventSpeedChange, speedKn, heading)
}

// screenAt ingests pts into a fresh tier (one slide at t0) and returns
// what its collision screen finds at q.
func screenAt(p CollisionParams, q time.Time, pts ...tracker.CriticalPoint) []encounter {
	tier := New(Config{Collision: p, EnableCollision: true}, nil)
	tier.Slide(t0, pts)
	return tier.screen(q)
}

func TestHeadOnEncounterDetected(t *testing.T) {
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	// Two 12-knot vessels 8 km apart, sailing straight at each other:
	// closing speed 24 kn ≈ 12.35 m/s → TCPA ≈ 648 s, DCPA ≈ 0.
	enc := screenAt(CollisionParams{}, t0,
		sight(1, geo.Destination(mid, 270, 4000), 90, 12),
		sight(2, geo.Destination(mid, 90, 4000), 270, 12))
	if len(enc) != 1 {
		t.Fatalf("encounters = %v", enc)
	}
	e := enc[0]
	if e.A != 1 || e.B != 2 {
		t.Errorf("pair = %d,%d", e.A, e.B)
	}
	wantT := 8000 / geo.KnotsToMetersPerSecond(24)
	if math.Abs(e.TCPA.Seconds()-wantT) > 30 {
		t.Errorf("TCPA = %v, want ~%.0fs", e.TCPA, wantT)
	}
	if e.DCPA > 100 {
		t.Errorf("DCPA = %.0f m, want ~0", e.DCPA)
	}
}

func TestCrossingCoursesRespectThreshold(t *testing.T) {
	p := CollisionParams{DistanceMeters: 300}
	cross := geo.Point{Lon: 24.5, Lat: 37.5}
	// Vessel 1 eastbound through the crossing; vessel 2 northbound,
	// timed to pass 1 km behind it: DCPA ≈ 700 m > 300 m → no alarm.
	if enc := screenAt(p, t0,
		sight(1, geo.Destination(cross, 270, 3000), 90, 12),
		sight(2, geo.Destination(cross, 180, 4000), 0, 12)); len(enc) != 0 {
		t.Errorf("crossing with wide CPA alarmed: %v", enc)
	}
	// Re-time vessel 2 to arrive simultaneously: alarm.
	if enc := screenAt(p, t0,
		sight(1, geo.Destination(cross, 270, 3000), 90, 12),
		sight(2, geo.Destination(cross, 180, 3000), 0, 12)); len(enc) != 1 {
		t.Errorf("simultaneous crossing not alarmed: %v", enc)
	}
}

func TestDivergingVesselsIgnored(t *testing.T) {
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	// Back to back, 6 km apart and sailing apart.
	if enc := screenAt(CollisionParams{}, t0,
		sight(1, geo.Destination(mid, 270, 3000), 270, 12),
		sight(2, geo.Destination(mid, 90, 3000), 90, 12)); len(enc) != 0 {
		t.Errorf("diverging distant vessels alarmed: %v", enc)
	}
}

func TestParallelCoursesOutsideThresholdIgnored(t *testing.T) {
	base := geo.Point{Lon: 24.5, Lat: 37.5}
	if enc := screenAt(CollisionParams{DistanceMeters: 500}, t0,
		sight(1, base, 90, 15),
		sight(2, geo.Destination(base, 0, 2000), 90, 15), // 2 km abeam
	); len(enc) != 0 {
		t.Errorf("parallel courses 2 km apart alarmed: %v", enc)
	}
}

func TestHorizonBoundsLookahead(t *testing.T) {
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	// Head-on but 20 km apart at 12 kn each: TCPA ≈ 27 min > 5 min.
	if enc := screenAt(CollisionParams{Horizon: 5 * time.Minute}, t0,
		sight(1, geo.Destination(mid, 270, 10000), 90, 12),
		sight(2, geo.Destination(mid, 90, 10000), 270, 12)); len(enc) != 0 {
		t.Errorf("encounter beyond the horizon alarmed: %v", enc)
	}
}

func TestStaleVesselsExcluded(t *testing.T) {
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	// Query half an hour later: both tracks are stale.
	if enc := screenAt(CollisionParams{Stale: 10 * time.Minute}, t0.Add(30*time.Minute),
		sight(1, geo.Destination(mid, 270, 4000), 90, 12),
		sight(2, geo.Destination(mid, 90, 4000), 270, 12)); len(enc) != 0 {
		t.Errorf("stale tracks alarmed: %v", enc)
	}
}

func TestGridPruningMatchesNaive(t *testing.T) {
	// A converging pair embedded in a dispersed fleet: pruning must not
	// lose it, and far-apart vessels must not appear.
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	pts := []tracker.CriticalPoint{
		sight(1, geo.Destination(mid, 270, 4000), 90, 12),
		sight(2, geo.Destination(mid, 90, 4000), 270, 12),
	}
	for i := uint32(0); i < 60; i++ {
		pos := geo.Point{
			Lon: 20 + float64(i%10)*0.8,
			Lat: 34 + float64(i/10)*1.1,
		}
		pts = append(pts, sight(100+i, pos, float64(i*7%360), 10))
	}
	enc := screenAt(CollisionParams{}, t0, pts...)
	found := false
	for _, e := range enc {
		if e.A == 1 && e.B == 2 {
			found = true
		}
		if e.DCPA > (CollisionParams{}).withDefaults().DistanceMeters {
			t.Errorf("encounter beyond threshold: %+v", e)
		}
	}
	if !found {
		t.Error("grid pruning lost the converging pair")
	}
}

func BenchmarkEncounters(b *testing.B) {
	var pts []tracker.CriticalPoint
	for i := uint32(0); i < 2000; i++ {
		pos := geo.Point{
			Lon: 20 + float64(i%45)*0.2,
			Lat: 34 + float64(i/45)*0.15,
		}
		pts = append(pts, sight(i, pos, float64(i*13%360), 8+float64(i%12)))
	}
	tier := New(Config{EnableCollision: true}, nil)
	tier.Slide(t0, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tier.screen(t0)
	}
}

func TestMooredClusterDoesNotAlarm(t *testing.T) {
	// Five vessels drifting within 200 m of each other at anchor: GPS
	// drift gives them sub-knot velocities in random directions. A quay
	// full of neighbors is not collision traffic.
	quay := geo.Point{Lon: 23.63, Lat: 37.94}
	var pts []tracker.CriticalPoint
	for i := uint32(0); i < 5; i++ {
		pos := geo.Destination(quay, float64(i)*72, 120)
		pts = append(pts, sight(10+i, pos, float64(i*50%360), 0.4))
	}
	if enc := screenAt(CollisionParams{}, t0, pts...); len(enc) != 0 {
		t.Errorf("anchored cluster alarmed: %v", enc)
	}
}

func TestMovingVesselTowardMooredOneAlarms(t *testing.T) {
	// One vessel bearing down on an anchored one: the moored vessel's
	// low speed must not suppress a genuine risk.
	anchored := geo.Point{Lon: 24.5, Lat: 37.5}
	enc := screenAt(CollisionParams{}, t0,
		sight(1, anchored, 10, 0.2),
		sight(2, geo.Destination(anchored, 270, 3000), 90, 14))
	if len(enc) != 1 {
		t.Fatalf("encounters = %v, want the bearing-down pair", enc)
	}
	if enc[0].DCPA > 300 {
		t.Errorf("DCPA = %.0f m", enc[0].DCPA)
	}
}

// A pair closing at only 0.3 m/s is suppressed by the default
// MinClosingMS (0.5) but must alarm when the caller explicitly asks
// for a finer gate — the override must not be clobbered by defaults.
func TestMinClosingOverride(t *testing.T) {
	base := geo.Point{Lon: 24.5, Lat: 37.5}
	const lead, chase = 4.42, 5.0 // knots; overtaking at ≈0.30 m/s
	pts := []tracker.CriticalPoint{
		sight(1, base, 90, chase),
		sight(2, geo.Destination(base, 90, 100), 90, lead),
	}
	if enc := screenAt(CollisionParams{}, t0, pts...); len(enc) != 0 {
		t.Errorf("slow overtake alarmed under the default closing gate: %v", enc)
	}
	enc := screenAt(CollisionParams{MinClosingMS: 0.2}, t0, pts...)
	if len(enc) != 1 {
		t.Fatalf("slow overtake with MinClosingMS=0.2: encounters = %v, want 1", enc)
	}
	if enc[0].A != 1 || enc[0].B != 2 {
		t.Errorf("pair = %d,%d", enc[0].A, enc[0].B)
	}
}

// cpa is closestApproach by value, the form the oracles and the
// threshold test were written against.
func cpa(a, b planar, p CollisionParams) (encounter, bool) { return closestApproach(&a, &b, &p) }

// The DCPA comparison is a strict exclusion (dcpa > threshold), so a
// pair predicted to pass exactly at the threshold distance still
// alarms. Exercised directly on planar states where the geometry is
// exact: reciprocal courses offset laterally by precisely 500 m.
func TestExactThresholdPairAlarms(t *testing.T) {
	p := CollisionParams{}.withDefaults() // DistanceMeters = 500
	a := planar{mmsi: 1, x: 0, y: 0, vx: 5, vy: 0, speedKn: 10}
	b := planar{mmsi: 2, x: 2000, y: 500, vx: -5, vy: 0, speedKn: 10}
	enc, ok := cpa(a, b, p)
	if !ok {
		t.Fatal("pair at exactly the DCPA threshold did not alarm")
	}
	if enc.DCPA != 500 {
		t.Errorf("DCPA = %v, want exactly 500", enc.DCPA)
	}
	if want := 200 * time.Second; enc.TCPA != want {
		t.Errorf("TCPA = %v, want %v", enc.TCPA, want)
	}
	// One millimeter wider and the strict exclusion kicks in.
	b.y = 500.001
	if _, ok := cpa(a, b, p); ok {
		t.Error("pair just beyond the threshold alarmed")
	}
}

// project is the screen's projection written out again for the
// oracles: the vessels heard from within Stale, in MMSI order, dead-
// reckoned to now on a plane around the first one.
func project(t *Tier, now time.Time) []planar {
	p := t.cfg.Collision
	mmsis := make([]uint32, 0, len(t.vstates))
	for mmsi, v := range t.vstates {
		if now.Sub(v.at) <= p.Stale {
			mmsis = append(mmsis, mmsi)
		}
	}
	slices.Sort(mmsis)
	var ref geo.Point
	var states []planar
	for i, mmsi := range mmsis {
		v := t.vstates[mmsi]
		if i == 0 {
			ref = v.pos
		}
		ms := geo.KnotsToMetersPerSecond(v.speedKn)
		brng := v.headingDeg * math.Pi / 180
		pos := geo.Destination(v.pos, v.headingDeg, ms*now.Sub(v.at).Seconds())
		x, y := planarOffset(ref, pos)
		states = append(states, planar{
			mmsi: mmsi, geo: pos, x: x, y: y,
			vx: ms * math.Sin(brng), vy: ms * math.Cos(brng), speedKn: v.speedKn,
		})
	}
	return states
}

func sortEncounters(out []encounter) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].TCPA != out[j].TCPA {
			return out[i].TCPA < out[j].TCPA
		}
		return out[i].A < out[j].A
	})
}

// bruteForce sweeps all pairs of the projected fleet with no spatial
// pruning — the oracle the index-driven screen must match exactly.
func bruteForce(t *Tier, now time.Time) []encounter {
	p := t.cfg.Collision
	states := project(t, now)
	var out []encounter
	for i := range states {
		for j := i + 1; j < len(states); j++ {
			if enc, ok := cpa(states[i], states[j], p); ok {
				enc.A, enc.B = states[i].mmsi, states[j].mmsi
				out = append(out, enc)
			}
		}
	}
	sortEncounters(out)
	return out
}

// The index-driven screen must agree with the all-pairs oracle on
// randomized fleets: pruning may skip pairs that cannot alarm, never
// pairs that do, and must not duplicate any.
func TestIndexMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pts []tracker.CriticalPoint
		// A few dense clusters (encounter-rich) plus scattered traffic.
		for c := 0; c < 4; c++ {
			center := geo.Point{Lon: 23 + rng.Float64()*3, Lat: 36.5 + rng.Float64()*2}
			for i := 0; i < 12; i++ {
				pos := geo.Destination(center, rng.Float64()*360, rng.Float64()*6000)
				pts = append(pts, sight(uint32(seed*10_000+int64(c)*100+int64(i)),
					pos, rng.Float64()*360, 2+rng.Float64()*16))
			}
		}
		for i := 0; i < 40; i++ {
			pos := geo.Point{Lon: 20 + rng.Float64()*8, Lat: 34 + rng.Float64()*5}
			pts = append(pts, sight(uint32(seed*10_000+5000+int64(i)), pos, rng.Float64()*360, 2+rng.Float64()*16))
		}
		tier := New(Config{EnableCollision: true}, nil)
		tier.Slide(t0, pts)
		want := bruteForce(tier, t0)
		got := tier.screen(t0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: index-driven encounters diverge from brute force:\n got %d %v\nwant %d %v",
				seed, len(got), got, len(want), want)
		}
		if len(want) == 0 {
			t.Errorf("seed %d: oracle found no encounters; fixture too sparse", seed)
		}
	}
}

// encountersRequery is the screen as it was before the pair loop went
// linear: each lower-index candidate is settled by re-running that
// candidate's whole index query and searching the result, and the
// output is ordered by sort.Slice. It is kept as the differential
// oracle — same projection, same candidate order — so the production
// screen must match it element for element, ties in (TCPA, A)
// included.
func encountersRequery(t *Tier, now time.Time) []encounter {
	p := t.cfg.Collision
	states := project(t, now)
	reach := 2*geo.KnotsToMetersPerSecond(p.MaxSpeedKnots)*p.Horizon.Seconds() + p.DistanceMeters
	idx := geo.NewPointIndex(reach / 111_000)
	for i, s := range states {
		idx.Add(int32(i), s.geo)
	}
	seenFrom := func(from, to int) bool {
		for _, c := range idx.CandidatesAppend(nil, states[from].geo, reach) {
			if int(c) == to {
				return true
			}
		}
		return false
	}
	var out []encounter
	for i := range states {
		for _, jj := range idx.CandidatesAppend(nil, states[i].geo, reach) {
			j := int(jj)
			if j == i || j < i && seenFrom(j, i) {
				continue
			}
			a, b := states[min(i, j)], states[max(i, j)]
			if enc, ok := cpa(a, b, p); ok {
				enc.A, enc.B = a.mmsi, b.mmsi
				out = append(out, enc)
			}
		}
	}
	sortEncounters(out)
	return out
}

// The linear pair loop must reproduce the re-query implementation
// element for element, in order, wherever the index scan is awkward:
// a cold start with the whole fleet live at once, a steady state in
// which vessels move and go silent past the screen's staleness bound
// between slides, rows straddling the equator, high latitudes where the
// scan is visibly asymmetric, and vessels parked exactly on cell edges.
func TestEncountersMatchRequeryOracle(t *testing.T) {
	type fixture struct {
		name             string
		vessels          int
		lon0, lat0       float64
		lonSpan, latSpan float64
		steps            int
	}
	fixtures := []fixture{
		{"cold-start-1500", 1500, 22, 35, 6, 5, 1},
		{"steady-state", 300, 22, 35, 4, 4, 12},
		{"equator", 300, -2, -2, 4, 4, 3},
		{"north-60", 300, 5, 60.5, 12, 9, 3},
		{"south-60", 300, -70, -71, 12, 9, 3},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(fx.name))))
			tier := New(Config{EnableCollision: true}, nil)
			p := tier.cfg.Collision
			reach := 2*geo.KnotsToMetersPerSecond(p.MaxSpeedKnots)*p.Horizon.Seconds() + p.DistanceMeters
			cellDeg := reach / 111_000
			pos := make([]geo.Point, fx.vessels)
			for i := range pos {
				pos[i] = geo.Point{Lon: fx.lon0 + rng.Float64()*fx.lonSpan, Lat: fx.lat0 + rng.Float64()*fx.latSpan}
				if i%5 == 0 { // exactly on a cell corner of the screen's grid
					pos[i].Lon = math.Round(pos[i].Lon/cellDeg) * cellDeg
					pos[i].Lat = math.Round(pos[i].Lat/cellDeg) * cellDeg
				}
			}
			encounters, ties, rehandled := 0, 0, 0
			for step := 0; step < fx.steps; step++ {
				now := t0.Add(time.Duration(step) * 5 * time.Minute)
				var pts []tracker.CriticalPoint
				for i := range pos {
					// From the second step on a third of the fleet goes
					// silent each step, so vessels drop out of the screen
					// mid-run.
					if step > 0 && (i+step)%3 == 0 {
						continue
					}
					heading, speed := rng.Float64()*360, rng.Float64()*18
					if i%4 == 0 {
						speed = 0 // moored: TCPA clamps to 0, ties in the sort key
					}
					pts = append(pts, cp(uint32(1000+i), pos[i], now, tracker.EventSpeedChange, speed, heading))
					pos[i] = geo.Destination(pos[i], heading, geo.KnotsToMetersPerSecond(speed)*300)
				}
				tier.Slide(now, pts)
				want := encountersRequery(tier, now)
				got := tier.screen(now)
				if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
					t.Fatalf("step %d: %d encounters, oracle %d; first difference at %s",
						step, len(got), len(want), firstDiff(got, want))
				}
				encounters += len(got)
				rehandled += oneWayPairs(&tier.cpa, reach)
				for k := 1; k < len(got); k++ {
					if got[k].TCPA == got[k-1].TCPA && got[k].A == got[k-1].A {
						ties++
					}
				}
			}
			if encounters == 0 {
				t.Error("fixture produced no encounters")
			}
			if fx.name == "north-60" && rehandled == 0 {
				t.Error("fixture produced no pair only the higher index sees; the asymmetric branch is untested")
			}
			if fx.name == "cold-start-1500" && ties == 0 {
				t.Error("fixture produced no (TCPA, A) ties; the sort's tie order is untested")
			}
		})
	}
}

// oneWayPairs counts, over the last screen's states, the pairs the
// higher index's scan reaches but the lower's does not — the ones the
// screen must take from the higher side.
func oneWayPairs(s *cpaScreen, reach float64) int {
	cand := make([][]int32, len(s.states))
	for i, st := range s.states {
		cand[i] = s.idx.CandidatesAppend(nil, st.geo, reach)
	}
	n := 0
	for i := range s.states {
		for _, j := range cand[i] {
			if int(j) < i && !slices.Contains(cand[j], int32(i)) {
				n++
			}
		}
	}
	return n
}

func firstDiff(got, want []encounter) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("[%d]: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("[%d]: lengths differ", min(len(got), len(want)))
}

// track builds a straight-line run of critical points for one vessel:
// n points every interval, starting at start from pos on heading at
// speedKn.
func track(mmsi uint32, pos geo.Point, heading, speedKn float64, start time.Time, interval time.Duration, n int) []tracker.CriticalPoint {
	pts := make([]tracker.CriticalPoint, 0, n)
	step := geo.KnotsToMetersPerSecond(speedKn) * interval.Seconds()
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * interval)
		pts = append(pts, cp(mmsi, geo.Destination(pos, heading, step*float64(i)), at, tracker.EventSpeedChange, speedKn, heading))
	}
	return pts
}

// Property: the screen is a pure function of the vessel state the
// points leave behind — interleaving the per-vessel streams differently
// across vessels and cutting them into slides at different places
// (preserving each vessel's own order, so exactly the same points are
// applied) must give byte-identical encounters.
func TestEncountersInvariantToArrivalOrder(t *testing.T) {
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	start := t0.Add(-10 * time.Minute)
	tracks := [][]tracker.CriticalPoint{
		track(1, geo.Destination(mid, 270, 4000), 90, 12, start, time.Minute, 11),
		track(2, geo.Destination(mid, 90, 4000), 270, 12, start, time.Minute, 11),
		track(3, geo.Destination(mid, 0, 2500), 180, 9, start, time.Minute, 11),
		track(4, geo.Destination(mid, 135, 9000), 315, 15, start, time.Minute, 11),
		track(5, geo.Destination(mid, 200, 1200), 20, 0.5, start, time.Minute, 11),
	}

	run := func(order []tracker.CriticalPoint, rng *rand.Rand) []encounter {
		tier := New(Config{EnableCollision: true}, nil)
		for len(order) > 0 {
			n := len(order)
			if rng != nil {
				n = 1 + rng.Intn(n)
			}
			slide := order[:n]
			q := slide[0].Time
			for _, p := range slide {
				q = maxTime(q, p.Time)
			}
			tier.Slide(q, slide)
			order = order[n:]
		}
		return slices.Clone(tier.screen(t0))
	}

	var roundRobin []tracker.CriticalPoint
	for i := 0; i < 11; i++ {
		for _, tr := range tracks {
			roundRobin = append(roundRobin, tr[i])
		}
	}
	want := run(roundRobin, nil)
	if len(want) == 0 {
		t.Fatal("fixture produced no encounters; the invariance check would be vacuous")
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		// Random fair interleaving: repeatedly pop the head of a random
		// non-empty track. Per-vessel order is preserved by construction.
		heads := make([]int, len(tracks))
		var order []tracker.CriticalPoint
		for len(order) < len(roundRobin) {
			i := rng.Intn(len(tracks))
			if heads[i] < len(tracks[i]) {
				order = append(order, tracks[i][heads[i]])
				heads[i]++
			}
		}
		if got := run(order, rng); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: encounters differ under reordering:\n got %v\nwant %v",
				trial, got, want)
		}
	}
}

// A point that arrives after a newer one for the same vessel — a
// back-dated StopStart or GapStart, or transport reordering across
// slides — must not rewind the vessel: the screen projects from the
// newest point, whatever order the points came in.
func TestLatePointsDoNotRewindVessel(t *testing.T) {
	pts := track(7, geo.Point{Lon: 24.5, Lat: 37.5}, 90, 12, t0.Add(-20*time.Minute), 30*time.Second, 40)
	for i := range pts {
		pts[i].HeadingDeg = float64(i) // tells the applied point apart
	}
	newest := pts[len(pts)-1]
	arrival := slices.Clone(pts)
	rand.New(rand.NewSource(11)).Shuffle(len(arrival), func(i, j int) { arrival[i], arrival[j] = arrival[j], arrival[i] })
	if arrival[len(arrival)-1] == newest {
		t.Fatal("shuffle left the newest point last; pick another seed")
	}
	tier := New(Config{EnableCollision: true}, nil)
	var q time.Time
	for _, p := range arrival {
		q = maxTime(q, p.Time)
		tier.Slide(q, []tracker.CriticalPoint{p})
	}
	v := tier.vstates[7]
	if !v.at.Equal(newest.Time) || v.pos != newest.Pos || v.headingDeg != newest.HeadingDeg {
		t.Errorf("state = %v @ %v heading %v, want the newest point %v @ %v heading %v",
			v.pos, v.at, v.headingDeg, newest.Pos, newest.Time, newest.HeadingDeg)
	}
}

// Under churn (new vessels appearing as old ones go silent) the tier's
// population must stabilize, and every vessel must be accounted for as
// live or evicted.
func TestVesselCountStabilizesUnderChurn(t *testing.T) {
	tier := New(Config{Stale: 10 * time.Minute, EnableCollision: true}, nil)
	base := geo.Point{Lon: 24.0, Lat: 37.0}
	// 200 generations, one new vessel per minute; with a 10-minute
	// staleness bound only ~10 vessels are ever live at once.
	for i := 0; i < 200; i++ {
		now := t0.Add(time.Duration(i) * time.Minute)
		pos := geo.Destination(base, float64(i*37%360), 5000+float64(i%7)*3000)
		tier.Slide(now, []tracker.CriticalPoint{
			cp(uint32(1000+i), pos, now, tracker.EventSpeedChange, 10, float64(i*53%360)),
		})
		if n := tier.Stats().Vessels; n > 15 {
			t.Fatalf("generation %d: population %d keeps growing despite churn", i, n)
		}
	}
	st := tier.Stats()
	if st.Evicted == 0 {
		t.Error("no vessels were evicted under churn")
	}
	if st.Vessels+st.Evicted != 200 {
		t.Errorf("vessels(%d) + evicted(%d) = %d, want 200 (every vessel accounted for)",
			st.Vessels, st.Evicted, st.Vessels+st.Evicted)
	}
}

// The screen takes the tier's vessels heard from within its staleness
// bound, and nothing else. A vessel inside a stop or a gap is kept by
// the tier however long it is silent, but is not screened once its
// newest point is older than the bound; a back-dated point does not
// make it screenable again, a newer one does.
func TestScreenLiveSet(t *testing.T) {
	tier := New(Config{EnableCollision: true}, nil)
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	screened := func(q time.Time, pts ...tracker.CriticalPoint) []uint32 {
		tier.Slide(q, pts)
		return slices.Clone(tier.cpa.mmsis)
	}
	cruise := func(q time.Time) tracker.CriticalPoint {
		return cp(500, geo.Destination(mid, 180, 8000), q, tracker.EventSpeedChange, 10, 0)
	}
	// 501 stops, 503 goes dark; 500 cruises and reports every slide.
	got := screened(t0,
		cruise(t0),
		cp(501, mid, t0, tracker.EventStopStart, 0.3, 45),
		cp(503, geo.Destination(mid, 90, 3000), t0, tracker.EventGapStart, 9, 270))
	if want := []uint32{500, 501, 503}; !slices.Equal(got, want) {
		t.Fatalf("at the start screened %v, want %v", got, want)
	}
	q := t0.Add(15 * time.Minute)
	if got := screened(q, cruise(q)); !slices.Equal(got, []uint32{500, 501, 503}) {
		t.Fatalf("at exactly the bound screened %v, want all three", got)
	}
	q = t0.Add(40 * time.Minute)
	if got := screened(q, cruise(q)); !slices.Equal(got, []uint32{500}) {
		t.Fatalf("after 40 silent minutes screened %v, want only the cruiser", got)
	}
	if n := tier.Stats().Vessels; n != 3 {
		t.Fatalf("tier holds %d vessels, want 3: the stopped and the dark one are exempt from eviction", n)
	}
	// Back-dated points: one older than what the tier holds, one newer
	// but still beyond the bound. Neither makes its vessel screenable.
	q = t0.Add(41 * time.Minute)
	if got := screened(q, cruise(q),
		cp(501, mid, t0.Add(-5*time.Minute), tracker.EventStopStart, 0.3, 45),
		cp(503, mid, t0.Add(10*time.Minute), tracker.EventStopStart, 0.3, 45),
	); !slices.Equal(got, []uint32{500}) {
		t.Fatalf("after back-dated points screened %v, want only the cruiser", got)
	}
	if at := tier.vstates[501].at; !at.Equal(t0) {
		t.Errorf("a point older than the vessel's newest rewound it to %v", at)
	}
	// Newer points bring both back.
	q = t0.Add(42 * time.Minute)
	if got := screened(q, cruise(q),
		cp(501, mid, q, tracker.EventStopEnd, 6, 90),
		cp(503, geo.Destination(mid, 90, 3000), q, tracker.EventGapEnd, 9, 270),
	); !slices.Equal(got, []uint32{500, 501, 503}) {
		t.Fatalf("after newer points screened %v, want all three", got)
	}
}
