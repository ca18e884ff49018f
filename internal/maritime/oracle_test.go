package maritime

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rtec"
)

// naiveRecognizer is the differential oracle for the indexed
// recognizer: the four CE definitions over the linear helpers they used
// before the working memory was indexed — a scan of every
// stopStart/slowStart occurrence to locate a vessel, a probe of every
// vessel to list the holders of a fluent, close/3 by polygon distance
// on every ask — and an alert dedupe set that never forgets.
type naiveRecognizer struct {
	cfg      Config
	engine   *rtec.Engine
	vessels  map[string]Vessel
	entities []string // every vessel entity, sorted
	areas    []Area
	// facts holds every fact ever delivered: vessel and timestamp → area
	// IDs in arrival order.
	facts map[SpatialFact][]string
	seen  map[Alert]bool
	// grew is set when a batch added a fact: every proximity answer may
	// have changed, and the rules read them through the factsRead key.
	grew bool
}

// factsRead names the delivered facts as a read the engine tracks.
var factsRead = rtec.FluentKey{Fluent: "naiveFacts"}

func newNaiveRecognizer(cfg Config, vessels []Vessel, areas []Area) *naiveRecognizer {
	cfg = cfg.withDefaults()
	o := &naiveRecognizer{
		cfg:     cfg,
		engine:  rtec.NewEngine(int64(cfg.Window / time.Second)),
		vessels: make(map[string]Vessel),
		areas:   areas,
		facts:   make(map[SpatialFact][]string),
		seen:    make(map[Alert]bool),
	}
	for _, v := range vessels {
		o.vessels[v.Entity()] = v
		o.entities = append(o.entities, v.Entity())
	}
	sort.Strings(o.entities)
	o.install()
	return o
}

// lastPositionedEvent returns the latest window event among names for
// the entity at or before t, by scanning every occurrence.
func lastPositionedEvent(ctx *rtec.Ctx, entity string, t rtec.Timepoint, names ...string) (rtec.Event, bool) {
	var best rtec.Event
	found := false
	for _, name := range names {
		for _, ev := range ctx.EventsNamed(name) {
			if ev.Entity != entity || ev.Time > t {
				continue
			}
			if !found || ev.Time > best.Time {
				best = ev
				found = true
			}
		}
	}
	return best, found
}

func (o *naiveRecognizer) entitiesHolding(ctx *rtec.Ctx, fluent string, t rtec.Timepoint) []string {
	var out []string
	for _, entity := range o.entities {
		if ctx.HoldsAt(fluent, entity, rtec.True, t) {
			out = append(out, entity)
		}
	}
	return out
}

func (o *naiveRecognizer) proximity(ctx *rtec.Ctx, ev rtec.Event, kind AreaKind) []string {
	var out []string
	if o.cfg.Mode == SpatialFacts {
		ctx.DependOn(factsRead, ev.Time)
		for _, id := range o.facts[SpatialFact{Vessel: ev.Entity, Time: ev.Time}] {
			for _, a := range o.areas {
				if a.ID == id && a.Kind == kind {
					out = append(out, id)
				}
			}
		}
		return out
	}
	for _, a := range o.areas {
		if a.Kind == kind && a.Poly.DistanceMeters(geo.Point{Lon: ev.Lon, Lat: ev.Lat}) <= o.cfg.CloseMeters {
			out = append(out, a.ID)
		}
	}
	return out
}

func (o *naiveRecognizer) activeNear(ctx *rtec.Ctx, fluent, startME string, kind AreaKind, fishingOnly bool, areaID string, t rtec.Timepoint) int {
	n := 0
	for _, entity := range o.entitiesHolding(ctx, fluent, t) {
		if fishingOnly && !o.vessels[entity].Fishing {
			continue
		}
		ev, ok := lastPositionedEvent(ctx, entity, t, startME)
		if ok && slices.Contains(o.proximity(ctx, ev, kind), areaID) {
			n++
		}
	}
	return n
}

// activeNearScan is the per-firing holder scan the count fluents
// replaced: every vessel holding the fluent at t (fishing vessels only,
// if asked), located by its latest start ME at or before t, counts when
// that start was close to the area.
func (r *Recognizer) activeNearScan(ctx *rtec.Ctx, fluent, startME string, kind AreaKind, fishingOnly bool, areaID string, t rtec.Timepoint) int {
	n := 0
	for entity, v := range r.vessels {
		if !ctx.HoldsAt(fluent, entity, rtec.True, t) || fishingOnly && !v.Fishing {
			continue
		}
		ev, ok := lastPositionedEvent(ctx, entity, t, startME)
		if ok && slices.Contains(r.proximity(ev, kind), areaID) {
			n++
		}
	}
	return n
}

func (o *naiveRecognizer) install() {
	o.engine.DeclareInputFluent(rtec.InputFluent{Name: "stopped", StartEvent: MEStopStart, EndEvent: MEStopEnd})
	o.engine.DeclareInputFluent(rtec.InputFluent{Name: "lowSpeed", StartEvent: MESlowStart, EndEvent: MESlowEnd})
	var watchIDs, forbiddenIDs []string
	byID := make(map[string]*Area)
	for i, a := range o.areas {
		byID[a.ID] = &o.areas[i]
		switch a.Kind {
		case KindWatch:
			watchIDs = append(watchIDs, a.ID)
		case KindForbiddenFishing:
			forbiddenIDs = append(forbiddenIDs, a.ID)
		}
	}
	o.engine.Declare(CESuspicious, watchIDs)
	o.engine.Declare(CEIllegalFishing, forbiddenIDs)
	if o.cfg.ProbThreshold > 0 {
		o.engine.SetProbabilistic(o.cfg.ProbThreshold)
	}
	o.engine.DefineAggregate("naiveFacts", func(ctx *rtec.Ctx) {
		if o.grew {
			ctx.Invalidate(factsRead, -rtec.Inf, rtec.Inf)
		}
	})
	o.engine.DefineEvent(rtec.EventDef{Name: CEIllegalShipping, Rules: []rtec.TriggerRule{{
		Event: MEGap,
		Map:   func(ctx *rtec.Ctx, ev rtec.Event) []string { return o.proximity(ctx, ev, KindProtected) },
	}}})
	o.engine.DefineEvent(rtec.EventDef{Name: CEDangerousShipping, Rules: []rtec.TriggerRule{{
		Event: MESlowMotion,
		Map: func(ctx *rtec.Ctx, ev rtec.Event) []string {
			var out []string
			for _, id := range o.proximity(ctx, ev, KindShallow) {
				if Shallow(byID[id], o.vessels[ev.Entity]) {
					out = append(out, id)
				}
			}
			return out
		},
	}}})
	stopped := func(ctx *rtec.Ctx, id string, t rtec.Timepoint) int {
		return o.activeNear(ctx, "stopped", MEStopStart, KindWatch, false, id, t)
	}
	watch := func(keep func(n int) bool) func(*rtec.Ctx, rtec.Event) []string {
		return func(ctx *rtec.Ctx, ev rtec.Event) []string {
			var out []string
			for _, id := range o.proximity(ctx, ev, KindWatch) {
				if keep(stopped(ctx, id, ev.Time+1)) {
					out = append(out, id)
				}
			}
			return out
		}
	}
	o.engine.DefineSimpleFluent(rtec.SimpleFluentDef{
		Name: CESuspicious,
		Init: map[string][]rtec.TriggerRule{rtec.True: {{
			Event: MEStopStart, Map: watch(func(n int) bool { return n >= o.cfg.SuspiciousMin }),
		}}},
		Term: map[string][]rtec.TriggerRule{rtec.True: {{
			Event: MEStopEnd, Map: watch(func(n int) bool { return n < o.cfg.SuspiciousMin }),
		}}},
	})
	fishingInit := func(ctx *rtec.Ctx, ev rtec.Event) []string {
		if !o.vessels[ev.Entity].Fishing {
			return nil
		}
		return o.proximity(ctx, ev, KindForbiddenFishing)
	}
	fishingTerm := func(ctx *rtec.Ctx, ev rtec.Event) []string {
		if !o.vessels[ev.Entity].Fishing {
			return nil
		}
		var out []string
		for _, id := range o.proximity(ctx, ev, KindForbiddenFishing) {
			if o.activeNear(ctx, "stopped", MEStopStart, KindForbiddenFishing, true, id, ev.Time+1)+
				o.activeNear(ctx, "lowSpeed", MESlowStart, KindForbiddenFishing, true, id, ev.Time+1) == 0 {
				out = append(out, id)
			}
		}
		return out
	}
	o.engine.DefineSimpleFluent(rtec.SimpleFluentDef{
		Name: CEIllegalFishing,
		Init: map[string][]rtec.TriggerRule{rtec.True: {
			{Event: MEStopStart, Map: fishingInit}, {Event: MESlowMotion, Map: fishingInit},
		}},
		Term: map[string][]rtec.TriggerRule{rtec.True: {
			{Event: MEStopEnd, Map: fishingTerm}, {Event: MESlowEnd, Map: fishingTerm},
		}},
	})
}

// advance mirrors Recognizer.Advance with a dedupe set that is never
// pruned.
func (o *naiveRecognizer) advance(q time.Time, events []rtec.Event, facts []SpatialFact) Snapshot {
	o.grew = false
	for _, f := range facts {
		at := SpatialFact{Vessel: f.Vessel, Time: f.Time}
		if !slices.Contains(o.facts[at], f.AreaID) {
			o.grew = true
			o.facts[at] = append(o.facts[at], f.AreaID)
		}
	}
	res := o.engine.Advance(q.Unix(), events)
	snap := Snapshot{Query: q, Intervals: make(map[rtec.FluentKey]rtec.IntervalList)}
	add := func(a Alert) {
		snap.Recognized++
		if !o.seen[a] {
			o.seen[a] = true
			snap.Alerts = append(snap.Alerts, a)
		}
	}
	for _, ev := range res.Derived {
		add(Alert{CE: ev.Name, AreaID: ev.Entity, Time: time.Unix(ev.Time, 0).UTC()})
	}
	for key, ivs := range res.Fluents() {
		if key.Fluent != CESuspicious && key.Fluent != CEIllegalFishing {
			continue
		}
		snap.Intervals[key] = ivs
		for _, iv := range ivs {
			add(Alert{CE: key.Fluent, AreaID: key.Entity, Time: time.Unix(iv.Since, 0).UTC()})
		}
	}
	slices.SortStableFunc(snap.Alerts, CompareAlerts)
	return snap
}

// oracleWorld is a small world in which areas of every kind overlap in
// reach (one position is close to several of them) and a few spots lie
// far from all.
func oracleWorld() ([]Vessel, []Area, []geo.Point) {
	var vessels []Vessel
	for i := 1; i <= 14; i++ {
		vessels = append(vessels, Vessel{MMSI: uint32(200 + i), Fishing: i%3 == 0, DraftM: float64(1 + i%8)})
	}
	var areas []Area
	var spots []geo.Point
	for i := 0; i < 3; i++ {
		lon, lat := 23+float64(i), 36+0.5*float64(i)
		for k := AreaKind(0); k < numKinds; k++ {
			areas = append(areas, Area{
				ID: fmt.Sprintf("%s-%d", k, i), Kind: k, MinDepthM: 5,
				Poly: sq(lon+0.01*float64(k), lat, 0.02),
			})
		}
		// A second watch area in reach of the same spots.
		areas = append(areas, Area{ID: fmt.Sprintf("watch-%db", i), Kind: KindWatch, Poly: sq(lon, lat+0.01, 0.02)})
		spots = append(spots, geo.Point{Lon: lon, Lat: lat}, geo.Point{Lon: lon + 0.03, Lat: lat + 0.01},
			geo.Point{Lon: lon + 0.4, Lat: lat + 0.4})
	}
	return vessels, areas, spots
}

// oracleEvents draws one slide of MEs on a coarse time grid (equal
// timestamps within and across slides), delayed by up to ω plus two
// slides so some straddle the window edge and some arrive too late.
func oracleEvents(rng *rand.Rand, q time.Time, slide, window time.Duration, vessels []Vessel, spots []geo.Point) []rtec.Event {
	names := []string{
		MEStopStart, MEStopStart, MEStopEnd, MESlowStart, MESlowEnd, MESlowMotion, MEGap, METurn,
	}
	out := make([]rtec.Event, 10+rng.Intn(30))
	for i := range out {
		delay := time.Duration(rng.Int63n(int64(2 * slide)))
		if rng.Intn(8) == 0 {
			delay = window - slide + time.Duration(rng.Int63n(int64(3*slide)))
		}
		p := spots[rng.Intn(len(spots))]
		out[i] = rtec.Event{
			Name:   names[rng.Intn(len(names))],
			Entity: vessels[rng.Intn(len(vessels))].Entity(),
			Time:   q.Add(-delay).Truncate(5 * time.Minute).Unix(),
			Lon:    p.Lon, Lat: p.Lat,
			P: []float64{0, 0.9, 0.6, 0.3}[rng.Intn(4)],
		}
	}
	return out
}

// TestRecognizerMatchesNaiveOracle runs the indexed recognizer and the
// oracle side by side on random ME streams, in both spatial modes, crisp
// and probabilistic, and once with a snapshot/restore in the middle of
// the stream; every step must agree on the alerts (so pruned dedupe ≡
// unpruned dedupe), the CE intervals, every fluent instance and the
// working memory.
func TestRecognizerMatchesNaiveOracle(t *testing.T) {
	const window, slide = 90 * time.Minute, 10 * time.Minute
	vessels, areas, spots := oracleWorld()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"on-demand", Config{Window: window, SuspiciousMin: 2}},
		{"on-demand-scan", Config{Window: window, SuspiciousMin: 2, DisableGridIndex: true}},
		{"facts", Config{Window: window, SuspiciousMin: 2, Mode: SpatialFacts}},
		{"probabilistic", Config{Window: window, SuspiciousMin: 2, ProbThreshold: 0.5}},
		{"facts-probabilistic", Config{Window: window, SuspiciousMin: 2, Mode: SpatialFacts, ProbThreshold: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alerts := 0
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				rec := NewRecognizer(tc.cfg, vessels, areas)
				oracle := newNaiveRecognizer(tc.cfg, vessels, areas)
				gen := NewFactGenerator(areas, 3000)
				restoreAt := 5 + rng.Intn(20)
				for k := 1; k <= 30; k++ {
					q := t0.Add(time.Duration(k) * slide)
					events := oracleEvents(rng, q, slide, window, vessels, spots)
					var facts []SpatialFact
					if tc.cfg.Mode == SpatialFacts {
						facts = slices.Clone(gen.Facts(events))
					}
					if k == restoreAt {
						// A crash here: a fresh recognizer continues from the snapshot.
						snap := rec.Snapshot()
						rec = NewRecognizer(tc.cfg, vessels, areas)
						rec.RestoreSnapshot(snap)
					}
					got, want := rec.Advance(q, events, facts), oracle.advance(q, events, facts)
					alerts += len(got.Alerts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d slide %d: snapshots differ\n got %+v\nwant %+v", seed, k, got, want)
					}
					ge, we := rec.Engine().Snapshot(), oracle.engine.Snapshot()
					ge.Stats, we.Stats = rtec.Stats{}, rtec.Stats{} // the restored engine counts from its snapshot
					if !reflect.DeepEqual(ge, we) {
						t.Fatalf("seed %d slide %d: engine state differs\n got %+v\nwant %+v", seed, k, ge, we)
					}
					if n := len(rec.seen); n > rec.Engine().WorkingMemorySize()*len(areas) {
						t.Fatalf("seed %d slide %d: dedupe set holds %d alerts", seed, k, n)
					}
				}
				if got, want := rec.CECount(), len(oracle.seen); got != want {
					t.Fatalf("seed %d: CECount = %d, oracle emitted %d alerts", seed, got, want)
				}
			}
			if alerts == 0 {
				t.Fatal("the streams produced no alert: the test exercises nothing")
			}
		})
	}
}

// TestRecognizerStateStaysBounded pins the two growth fixes: the dedupe
// set and the close/3 memo are bounded by the window however long the
// stream runs, and a snapshot does not grow with it.
func TestRecognizerStateStaysBounded(t *testing.T) {
	const window, slide = time.Hour, 10 * time.Minute
	vessels, areas, spots := oracleWorld()
	rec := NewRecognizer(Config{Window: window, SuspiciousMin: 2}, vessels, areas)
	rng := rand.New(rand.NewSource(7))
	maxSeen, maxMemo, total := 0, 0, 0
	for k := 1; k <= 400; k++ {
		q := t0.Add(time.Duration(k) * slide)
		// Jitter the spots so positions keep being new to the memo.
		events := oracleEvents(rng, q, slide, window, vessels, spots)
		for i := range events {
			events[i].Lon += float64(k) * 1e-7
		}
		total += len(rec.Advance(q, events, nil).Alerts)
		if k > 20 {
			maxSeen, maxMemo = max(maxSeen, len(rec.seen)), max(maxMemo, len(rec.closeMemo))
		}
		if len(rec.closeMemo) > rec.Engine().WorkingMemorySize() {
			t.Fatalf("slide %d: %d memo entries for %d events in memory", k, len(rec.closeMemo), rec.Engine().WorkingMemorySize())
		}
		for a := range rec.seen {
			if !a.Time.After(q.Add(-window)) {
				t.Fatalf("slide %d: dedupe set retains %v, outside the window", k, a)
			}
		}
	}
	if rec.CECount() != total || total < 10*maxSeen {
		t.Fatalf("CECount %d, alerts %d, peak dedupe set %d: the stream is too short to show the bound", rec.CECount(), total, maxSeen)
	}
	if got := len(rec.Snapshot().Seen); got > maxSeen {
		t.Fatalf("snapshot carries %d alerts, window peak is %d", got, maxSeen)
	}
}

// countEvents draws one slide of durative-ME boundaries on a coarse time
// grid: starts and ends of stopped and lowSpeed in any order (ends
// before any start, starts whose episode already ended, episodes still
// open), late arrivals up to the window edge, and now and then a second
// start of the same vessel at the same time but another spot.
func countEvents(rng *rand.Rand, q time.Time, slide, window time.Duration, vessels []Vessel, spots []geo.Point) []rtec.Event {
	names := []string{MEStopStart, MEStopStart, MEStopEnd, MESlowStart, MESlowStart, MESlowEnd, MESlowMotion}
	var out []rtec.Event
	for i := 5 + rng.Intn(20); i > 0; i-- {
		delay := time.Duration(rng.Int63n(int64(2 * slide)))
		if rng.Intn(6) == 0 {
			delay = window - slide + time.Duration(rng.Int63n(int64(2*slide)))
		}
		p := spots[rng.Intn(len(spots))]
		ev := rtec.Event{
			Name:   names[rng.Intn(len(names))],
			Entity: vessels[rng.Intn(len(vessels))].Entity(),
			Time:   q.Add(-delay).Truncate(5 * time.Minute).Unix(),
			Lon:    p.Lon, Lat: p.Lat,
		}
		out = append(out, ev)
		if (ev.Name == MEStopStart || ev.Name == MESlowStart) && rng.Intn(3) == 0 {
			p = spots[rng.Intn(len(spots))]
			ev.Lon, ev.Lat = p.Lon, p.Lat
			out = append(out, ev)
		}
	}
	return out
}

// TestCountFluentsMatchHolderScan holds the count fluents to the holder
// scan they replaced: a probe definition asks both counts, and the scan,
// for every area at every start and end ME of the window, at and a
// moment after it (a superset of what the rules ask), at every query
// step, in both spatial modes, crisp and probabilistic, across a
// snapshot/restore at a random step. Four streams are fixed; a fifth is
// new to every run.
func TestCountFluentsMatchHolderScan(t *testing.T) {
	const window, slide = 90 * time.Minute, 10 * time.Minute
	vessels, areas, spots := oracleWorld()
	seeds := []int64{1, 2, 3, 4, time.Now().UnixNano()}
	for _, cfg := range []Config{
		{Window: window, SuspiciousMin: 2},
		{Window: window, SuspiciousMin: 2, Mode: SpatialFacts},
		{Window: window, SuspiciousMin: 2, ProbThreshold: 0.5},
		{Window: window, SuspiciousMin: 2, Mode: SpatialFacts, ProbThreshold: 0.5},
	} {
		type ask struct {
			seed, q, t int64
			area       string
		}
		asked := make(map[ask]bool)
		counted, seed := 0, int64(0)
		probed := func() *Recognizer {
			r := NewRecognizer(cfg, vessels, areas)
			probe := func(ctx *rtec.Ctx, ev rtec.Event) []string {
				for _, a := range areas {
					for _, at := range []rtec.Timepoint{ev.Time, ev.Time + 1} {
						var got, want int
						switch k := (ask{seed, ctx.Query, at, a.ID}); {
						case asked[k]:
							continue
						case a.Kind == KindWatch:
							asked[k] = true
							got = r.stoppedNear(ctx, a.ID, at)
							want = r.activeNearScan(ctx, "stopped", MEStopStart, KindWatch, false, a.ID, at)
						case a.Kind == KindForbiddenFishing:
							asked[k] = true
							got = r.fishingActivityNear(ctx, a.ID, at)
							want = r.activeNearScan(ctx, "stopped", MEStopStart, KindForbiddenFishing, true, a.ID, at) +
								r.activeNearScan(ctx, "lowSpeed", MESlowStart, KindForbiddenFishing, true, a.ID, at)
						default:
							continue
						}
						if got != want {
							t.Fatalf("%+v seed %d q %d: count at %s, %d = %d, holder scan says %d", cfg, seed, ctx.Query, a.ID, at, got, want)
						}
						if got > 0 {
							counted++
						}
					}
				}
				return nil
			}
			var rules []rtec.TriggerRule
			for _, name := range []string{MEStopStart, MEStopEnd, MESlowStart, MESlowEnd} {
				rules = append(rules, rtec.TriggerRule{Event: name, Map: probe})
			}
			r.engine.DefineEvent(rtec.EventDef{Name: "countProbe", Rules: rules})
			return r
		}
		for _, seed = range seeds {
			rng := rand.New(rand.NewSource(seed))
			rec := probed()
			gen := NewFactGenerator(areas, 3000)
			restoreAt := 3 + rng.Intn(20)
			for k := 1; k <= 25; k++ {
				q := t0.Add(time.Duration(k) * slide)
				events := countEvents(rng, q, slide, window, vessels, spots)
				var facts []SpatialFact
				if cfg.Mode == SpatialFacts {
					facts = slices.Clone(gen.Facts(events))
				}
				if k == restoreAt {
					snap := rec.Snapshot()
					rec = probed()
					rec.RestoreSnapshot(snap)
				}
				rec.Advance(q, events, facts)
			}
		}
		t.Logf("%+v: %d asks, %d counted a vessel", cfg, len(asked), counted)
		if counted < len(asked)/10 {
			t.Errorf("%+v: %d of %d asks counted a vessel: the streams exercise little", cfg, counted, len(asked))
		}
	}
}
