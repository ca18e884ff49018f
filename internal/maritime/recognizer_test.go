package maritime

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rtec"
	"repro/internal/tracker"
)

var t0 = time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)

func sq(lon, lat, half float64) *geo.Polygon {
	return geo.MustPolygon([]geo.Point{
		{Lon: lon - half, Lat: lat - half},
		{Lon: lon + half, Lat: lat - half},
		{Lon: lon + half, Lat: lat + half},
		{Lon: lon - half, Lat: lat + half},
	})
}

// testWorld: one area of each kind, well separated.
func testAreas() []Area {
	return []Area{
		{ID: "prot-1", Kind: KindProtected, Poly: sq(24.0, 37.0, 0.05)},
		{ID: "fish-1", Kind: KindForbiddenFishing, Poly: sq(25.0, 36.0, 0.05)},
		{ID: "shal-1", Kind: KindShallow, Poly: sq(26.0, 38.0, 0.05), MinDepthM: 5},
		{ID: "watch-1", Kind: KindWatch, Poly: sq(23.0, 36.0, 0.05)},
	}
}

func testVessels() []Vessel {
	return []Vessel{
		{MMSI: 1, Fishing: true, DraftM: 2},
		{MMSI: 2, Fishing: false, DraftM: 8}, // deep draft
		{MMSI: 3, Fishing: false, DraftM: 2},
		{MMSI: 4}, {MMSI: 5}, {MMSI: 6}, {MMSI: 7},
	}
}

func ev(name string, mmsi int, at time.Duration, lon, lat float64) rtec.Event {
	return rtec.Event{
		Name: name, Entity: entity(mmsi), Time: t0.Add(at).Unix(), Lon: lon, Lat: lat,
	}
}

func entity(mmsi int) string {
	return rtec.Event{Entity: ""}.Entity + itoa(mmsi)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func newTestRecognizer(mode Mode) *Recognizer {
	return NewRecognizer(Config{
		Window: 2 * time.Hour, CloseMeters: 3000, Mode: mode,
	}, testVessels(), testAreas())
}

func hasAlert(alerts []Alert, ce, area string) bool {
	for _, a := range alerts {
		if a.CE == ce && a.AreaID == area {
			return true
		}
	}
	return false
}

func TestIllegalShippingOnGapNearProtectedArea(t *testing.T) {
	r := newTestRecognizer(SpatialOnDemand)
	snap := r.Advance(t0.Add(time.Hour), []rtec.Event{
		ev(MEGap, 2, 30*time.Minute, 24.0, 37.0),  // inside prot-1
		ev(MEGap, 3, 40*time.Minute, 20.0, 40.0),  // open water
		ev(METurn, 2, 20*time.Minute, 24.0, 37.0), // turns never trigger it
	}, nil)
	if !hasAlert(snap.Alerts, CEIllegalShipping, "prot-1") {
		t.Errorf("no illegalShipping alert: %v", snap.Alerts)
	}
	n := 0
	for _, a := range snap.Alerts {
		if a.CE == CEIllegalShipping {
			n++
		}
	}
	if n != 1 {
		t.Errorf("illegalShipping alerts = %d, want 1", n)
	}
}

func TestDangerousShippingRespectsDraft(t *testing.T) {
	r := newTestRecognizer(SpatialOnDemand)
	snap := r.Advance(t0.Add(time.Hour), []rtec.Event{
		// Deep-draft vessel 2 (8 m) creeping over 5 m shallows: dangerous.
		ev(MESlowMotion, 2, 10*time.Minute, 26.0, 38.0),
		// Shallow-draft vessel 3 (2 m): 5 m of water is fine.
		ev(MESlowMotion, 3, 12*time.Minute, 26.0, 38.0),
	}, nil)
	var areas []string
	for _, a := range snap.Alerts {
		if a.CE == CEDangerousShipping {
			areas = append(areas, a.AreaID)
		}
	}
	if !reflect.DeepEqual(areas, []string{"shal-1"}) {
		t.Errorf("dangerousShipping alerts = %v, want exactly one for shal-1", areas)
	}
}

// stopEvents builds the stopStart/stopEnd pair for a vessel at the
// watch area.
func stopAt(mmsi int, start, end time.Duration) []rtec.Event {
	return []rtec.Event{
		ev(MEStopStart, mmsi, start, 23.0, 36.0),
		ev(MEStopEnd, mmsi, end, 23.0, 36.0),
	}
}

func TestSuspiciousAreaNeedsFourVessels(t *testing.T) {
	r := newTestRecognizer(SpatialOnDemand)
	var events []rtec.Event
	// Vessels 4..7 stop in the watch area at staggered times.
	events = append(events, stopAt(4, 10*time.Minute, 100*time.Minute)...)
	events = append(events, stopAt(5, 20*time.Minute, 90*time.Minute)...)
	events = append(events, stopAt(6, 30*time.Minute, 80*time.Minute)...)
	events = append(events, stopAt(7, 40*time.Minute, 70*time.Minute)...)
	snap := r.Advance(t0.Add(2*time.Hour), events, nil)

	key := rtec.FluentKey{Fluent: CESuspicious, Entity: "watch-1", Value: rtec.True}
	ivs := snap.Intervals[key]
	if len(ivs) != 1 {
		t.Fatalf("suspicious intervals = %v, want one", ivs)
	}
	// Suspicious from the 4th stop (40 min) until the count drops below
	// 4 (first departure at 70 min).
	wantSince := t0.Add(40 * time.Minute).Unix()
	wantUntil := t0.Add(70 * time.Minute).Unix()
	if ivs[0].Since != wantSince || ivs[0].Until != wantUntil {
		t.Errorf("suspicious = %v, want (%d, %d]", ivs[0], wantSince, wantUntil)
	}
}

func TestSuspiciousNotTriggeredByThreeVessels(t *testing.T) {
	r := newTestRecognizer(SpatialOnDemand)
	var events []rtec.Event
	events = append(events, stopAt(4, 10*time.Minute, 100*time.Minute)...)
	events = append(events, stopAt(5, 20*time.Minute, 90*time.Minute)...)
	events = append(events, stopAt(6, 30*time.Minute, 80*time.Minute)...)
	snap := r.Advance(t0.Add(2*time.Hour), events, nil)
	key := rtec.FluentKey{Fluent: CESuspicious, Entity: "watch-1", Value: rtec.True}
	if got := snap.Intervals[key]; got != nil {
		t.Errorf("three vessels already suspicious: %v", got)
	}
}

func TestIllegalFishingLifecycle(t *testing.T) {
	r := newTestRecognizer(SpatialOnDemand)
	events := []rtec.Event{
		// Fishing vessel 1 trawls inside the forbidden area.
		ev(MESlowStart, 1, 10*time.Minute, 25.0, 36.0),
		ev(MESlowMotion, 1, 10*time.Minute, 25.0, 36.0),
		ev(MESlowEnd, 1, 50*time.Minute, 25.0, 36.0),
		// Non-fishing vessel 3 does the same: no violation.
		ev(MESlowStart, 3, 15*time.Minute, 25.0, 36.0),
		ev(MESlowMotion, 3, 15*time.Minute, 25.0, 36.0),
		ev(MESlowEnd, 3, 45*time.Minute, 25.0, 36.0),
	}
	snap := r.Advance(t0.Add(2*time.Hour), events, nil)
	key := rtec.FluentKey{Fluent: CEIllegalFishing, Entity: "fish-1", Value: rtec.True}
	ivs := snap.Intervals[key]
	if len(ivs) != 1 {
		t.Fatalf("illegalFishing intervals = %v", ivs)
	}
	if ivs[0].Since != t0.Add(10*time.Minute).Unix() || ivs[0].Until != t0.Add(50*time.Minute).Unix() {
		t.Errorf("interval = %v", ivs[0])
	}
}

func TestIllegalFishingPersistsWhileAnotherFisherActive(t *testing.T) {
	vessels := append(testVessels(), Vessel{MMSI: 8, Fishing: true, DraftM: 2})
	r := NewRecognizer(Config{Window: 2 * time.Hour}, vessels, testAreas())
	events := []rtec.Event{
		ev(MESlowStart, 1, 10*time.Minute, 25.0, 36.0),
		ev(MESlowMotion, 1, 10*time.Minute, 25.0, 36.0),
		ev(MESlowStart, 8, 20*time.Minute, 25.0, 36.0),
		ev(MESlowMotion, 8, 20*time.Minute, 25.0, 36.0),
		// Vessel 1 leaves; vessel 8 keeps trawling → CE must persist.
		ev(MESlowEnd, 1, 40*time.Minute, 25.0, 36.0),
		ev(MESlowEnd, 8, 80*time.Minute, 25.0, 36.0),
	}
	snap := r.Advance(t0.Add(2*time.Hour), events, nil)
	key := rtec.FluentKey{Fluent: CEIllegalFishing, Entity: "fish-1", Value: rtec.True}
	ivs := snap.Intervals[key]
	if len(ivs) != 1 {
		t.Fatalf("intervals = %v, want one continuous", ivs)
	}
	if ivs[0].Until != t0.Add(80*time.Minute).Unix() {
		t.Errorf("interval ends %d, want the second vessel's departure", ivs[0].Until)
	}
}

func TestSpatialFactsModeMatchesOnDemand(t *testing.T) {
	events := []rtec.Event{
		ev(MEGap, 2, 30*time.Minute, 24.0, 37.0),
		ev(MESlowStart, 1, 10*time.Minute, 25.0, 36.0),
		ev(MESlowMotion, 1, 10*time.Minute, 25.0, 36.0),
		ev(MESlowEnd, 1, 50*time.Minute, 25.0, 36.0),
		ev(MESlowMotion, 2, 40*time.Minute, 26.0, 38.0),
	}
	onDemand := newTestRecognizer(SpatialOnDemand).Advance(t0.Add(2*time.Hour), events, nil)

	gen := NewFactGenerator(testAreas(), 3000)
	facts := gen.Facts(events)
	if len(facts) == 0 {
		t.Fatal("no spatial facts generated")
	}
	withFacts := newTestRecognizer(SpatialFacts).Advance(t0.Add(2*time.Hour), events, facts)

	if !reflect.DeepEqual(onDemand.Alerts, withFacts.Alerts) {
		t.Errorf("alerts differ:\non-demand: %v\nfacts:     %v", onDemand.Alerts, withFacts.Alerts)
	}
	if !reflect.DeepEqual(onDemand.Intervals, withFacts.Intervals) {
		t.Errorf("intervals differ:\non-demand: %v\nfacts:     %v", onDemand.Intervals, withFacts.Intervals)
	}
}

func TestGridIndexAblationMatches(t *testing.T) {
	events := []rtec.Event{
		ev(MEGap, 2, 30*time.Minute, 24.0, 37.0),
		ev(MESlowMotion, 2, 40*time.Minute, 26.0, 38.0),
	}
	withIdx := newTestRecognizer(SpatialOnDemand).Advance(t0.Add(time.Hour), events, nil)
	noIdx := NewRecognizer(Config{
		Window: 2 * time.Hour, DisableGridIndex: true,
	}, testVessels(), testAreas()).Advance(t0.Add(time.Hour), events, nil)
	if !reflect.DeepEqual(withIdx.Alerts, noIdx.Alerts) {
		t.Errorf("grid index changes results:\nwith: %v\nwithout: %v", withIdx.Alerts, noIdx.Alerts)
	}
}

func TestMEStreamConversion(t *testing.T) {
	cps := []tracker.CriticalPoint{
		{MMSI: 9, Type: tracker.EventTurn, Time: t0, Pos: geo.Point{Lon: 1, Lat: 2}},
		{MMSI: 9, Type: tracker.EventSmoothTurn, Time: t0.Add(time.Minute)},
		{MMSI: 9, Type: tracker.EventSpeedChange, Time: t0.Add(2 * time.Minute)},
		{MMSI: 9, Type: tracker.EventGapStart, Time: t0.Add(3 * time.Minute)},
		{MMSI: 9, Type: tracker.EventGapEnd, Time: t0.Add(4 * time.Minute)},
		{MMSI: 9, Type: tracker.EventStopStart, Time: t0.Add(5 * time.Minute)},
		{MMSI: 9, Type: tracker.EventStopEnd, Time: t0.Add(6 * time.Minute)},
		{MMSI: 9, Type: tracker.EventSlowStart, Time: t0.Add(7 * time.Minute)},
		{MMSI: 9, Type: tracker.EventSlowEnd, Time: t0.Add(8 * time.Minute)},
		{MMSI: 9, Type: tracker.EventFirst, Time: t0.Add(9 * time.Minute)},
	}
	mes := MEStream(cps)
	var names []string
	for _, m := range mes {
		names = append(names, m.Name)
	}
	want := []string{
		METurn, METurn, MESpeedChange, MEGap, MEGapEnd,
		MEStopStart, MEStopEnd, MESlowStart, MESlowMotion, MESlowEnd,
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("MEStream = %v, want %v", names, want)
	}
	if mes[0].Lon != 1 || mes[0].Lat != 2 || mes[0].Entity != "9" {
		t.Errorf("coords/entity not carried: %+v", mes[0])
	}
}

func TestPartitioning(t *testing.T) {
	areas := testAreas()
	west, east := PartitionAreas(areas, 24.5)
	if len(west)+len(east) != len(areas) {
		t.Fatal("areas lost in partition")
	}
	for _, a := range west {
		if a.Poly.Centroid().Lon >= 24.5 {
			t.Errorf("area %s misplaced west", a.ID)
		}
	}

	events := []rtec.Event{
		ev(METurn, 1, 0, 23.0, 36.0),
		ev(METurn, 2, 0, 26.0, 38.0),
	}
	we, ee := PartitionEvents(events, 24.5)
	if len(we) != 1 || len(ee) != 1 {
		t.Errorf("event partition = %d/%d", len(we), len(ee))
	}

	facts := []SpatialFact{
		{Vessel: "1", AreaID: "watch-1"},
		{Vessel: "2", AreaID: "shal-1"},
	}
	wf, ef := PartitionFacts(facts, west)
	if len(wf) != 1 || len(ef) != 1 {
		t.Errorf("fact partition = %d/%d", len(wf), len(ef))
	}
}

func TestShallowPredicate(t *testing.T) {
	a := &Area{Kind: KindShallow, MinDepthM: 5}
	if !Shallow(a, Vessel{DraftM: 8}) {
		t.Error("8 m draft in 5 m water should be shallow")
	}
	if Shallow(a, Vessel{DraftM: 2}) {
		t.Error("2 m draft in 5 m water should be fine")
	}
	deep := &Area{Kind: KindProtected, MinDepthM: 5}
	if Shallow(deep, Vessel{DraftM: 8}) {
		t.Error("non-shallow areas are never 'shallow'")
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{CE: CEIllegalShipping, AreaID: "prot-1", Time: t0}
	if a.String() == "" {
		t.Error("empty alert string")
	}
	b := Alert{CE: CEDangerousShipping, AreaID: "shal-1", Time: t0, Vessel: 42}
	if b.String() == a.String() {
		t.Error("vessel not rendered")
	}
}

func TestSpatialFactsRetainedAcrossAdvances(t *testing.T) {
	// The slowStart arrives in the first slide, the slowEnd in the
	// second: the facts for the first slide's MEs must still resolve at
	// the second query time (they share the MEs' window semantics).
	first := []rtec.Event{
		ev(MESlowStart, 1, 10*time.Minute, 25.0, 36.0),
		ev(MESlowMotion, 1, 10*time.Minute, 25.0, 36.0),
	}
	second := []rtec.Event{
		ev(MESlowEnd, 1, 70*time.Minute, 25.0, 36.0),
	}
	gen := NewFactGenerator(testAreas(), 3000)

	onDemand := newTestRecognizer(SpatialOnDemand)
	onDemand.Advance(t0.Add(time.Hour), first, nil)
	wantSnap := onDemand.Advance(t0.Add(2*time.Hour), second, nil)

	withFacts := newTestRecognizer(SpatialFacts)
	withFacts.Advance(t0.Add(time.Hour), first, gen.Facts(first))
	gotSnap := withFacts.Advance(t0.Add(2*time.Hour), second, gen.Facts(second))

	key := rtec.FluentKey{Fluent: CEIllegalFishing, Entity: "fish-1", Value: rtec.True}
	want := wantSnap.Intervals[key]
	got := gotSnap.Intervals[key]
	if len(want) == 0 {
		t.Fatal("on-demand mode recognized nothing — fixture broken")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("facts mode diverged across advances: got %v, want %v", got, want)
	}
	if gotSnap.Recognized != wantSnap.Recognized {
		t.Errorf("Recognized = %d, want %d", gotSnap.Recognized, wantSnap.Recognized)
	}
}

func TestProbabilisticRecognitionThresholds(t *testing.T) {
	// Probabilistic mode: a barely-detected trawl (confidence 0.55)
	// stays below a 0.8 belief threshold; a confident one crosses it.
	evP := func(name string, mmsi int, at time.Duration, lon, lat, p float64) rtec.Event {
		e := ev(name, mmsi, at, lon, lat)
		e.P = p
		return e
	}
	vessels := append(testVessels(), Vessel{MMSI: 8, Fishing: true, DraftM: 2})
	r := NewRecognizer(Config{Window: 2 * time.Hour, ProbThreshold: 0.8},
		vessels, testAreas())
	snap := r.Advance(t0.Add(2*time.Hour), []rtec.Event{
		// Vessel 1: marginal detection.
		evP(MESlowStart, 1, 10*time.Minute, 25.0, 36.0, 0.55),
		evP(MESlowMotion, 1, 10*time.Minute, 25.0, 36.0, 0.55),
		evP(MESlowEnd, 1, 50*time.Minute, 25.0, 36.0, 1),
	}, nil)
	key := rtec.FluentKey{Fluent: CEIllegalFishing, Entity: "fish-1", Value: rtec.True}
	if got := snap.Intervals[key]; got != nil {
		t.Errorf("marginal detection crossed the belief threshold: %v", got)
	}
	// Belief is still inspectable below the threshold.
	belief := r.Engine().BeliefOf(key)
	if p := rtec.ProbAt(belief, t0.Add(20*time.Minute).Unix()); p < 0.4 || p >= 0.8 {
		t.Errorf("belief = %v, want ≈0.55", p)
	}

	r2 := NewRecognizer(Config{Window: 2 * time.Hour, ProbThreshold: 0.8},
		vessels, testAreas())
	snap2 := r2.Advance(t0.Add(2*time.Hour), []rtec.Event{
		evP(MESlowStart, 8, 10*time.Minute, 25.0, 36.0, 0.95),
		evP(MESlowMotion, 8, 10*time.Minute, 25.0, 36.0, 0.95),
		evP(MESlowEnd, 8, 50*time.Minute, 25.0, 36.0, 1),
	}, nil)
	if got := snap2.Intervals[key]; len(got) != 1 {
		t.Errorf("confident detection missed: %v", got)
	}
}

func TestCrispModeIgnoresConfidences(t *testing.T) {
	// Without ProbThreshold, even a 0.55-confidence trawl raises the CE.
	r := newTestRecognizer(SpatialOnDemand)
	low := ev(MESlowStart, 1, 10*time.Minute, 25.0, 36.0)
	low.P = 0.55
	lowM := ev(MESlowMotion, 1, 10*time.Minute, 25.0, 36.0)
	lowM.P = 0.55
	snap := r.Advance(t0.Add(time.Hour), []rtec.Event{low, lowM}, nil)
	key := rtec.FluentKey{Fluent: CEIllegalFishing, Entity: "fish-1", Value: rtec.True}
	if got := snap.Intervals[key]; len(got) != 1 {
		t.Errorf("crisp recognition suppressed a low-confidence CE: %v", got)
	}
}

// TestSpatialFactDeliveredTwiceIndexedOnce: a fact a later slide delivers
// again is the same fact. The gap near the protected area is one
// illegalShipping occurrence in every window that holds it, however many
// slides carried its fact, and the recognizer retains the fact once.
func TestSpatialFactDeliveredTwiceIndexedOnce(t *testing.T) {
	gap := []rtec.Event{ev(MEGap, 2, 30*time.Minute, 24.0, 37.0)}
	facts := slices.Clone(NewFactGenerator(testAreas(), 3000).Facts(gap))
	if len(facts) != 1 {
		t.Fatalf("facts = %v, want the one for prot-1", facts)
	}
	r := newTestRecognizer(SpatialFacts)
	events := gap
	for k, q := range []time.Duration{time.Hour, 70 * time.Minute, 80 * time.Minute} {
		snap := r.Advance(t0.Add(q), events, facts)
		events = nil
		if snap.Recognized != 1 {
			t.Errorf("slide %d: Recognized = %d, want 1", k, snap.Recognized)
		}
	}
	if got := r.Snapshot().Facts; !slices.Equal(got, facts) {
		t.Errorf("retained facts = %v, want %v", got, facts)
	}
}
