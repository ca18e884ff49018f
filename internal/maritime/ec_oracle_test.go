package maritime

import (
	"cmp"
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

// The four CE definitions evaluated by time-point Event Calculus over the
// working memory at each query time — no engine, no intervals cached, no
// index, no count fluent: holdsAt is asked at every timepoint, and every
// rule condition (close/3, the vessel counts, the static facts) is
// evaluated from the window's events where the rule fires. It encodes
// the same two §4.2 windowing differences as internal/rtec's oracle:
// the working memory is what the window semantics leave (the oracle is
// handed the engine's), and a durative ME's end whose start is not in
// it stands for an episode from the window start.

type ceOracle struct {
	cfg     Config
	vessels map[string]Vessel
	areas   []Area
	memory  []rtec.Event
	window  rtec.Timepoint
	horizon rtec.Timepoint
	counts  map[[2]any]int // activeNear's answers, by area, kind, names and time
}

func (o *ceOracle) near(ev rtec.Event, kind AreaKind) []Area {
	var out []Area
	for _, a := range o.areas {
		if a.Kind == kind && a.Poly.DistanceMeters(geo.Point{Lon: ev.Lon, Lat: ev.Lat}) <= o.cfg.CloseMeters {
			out = append(out, a)
		}
	}
	return out
}

func (o *ceOracle) of(vessel string, names ...string) []rtec.Event {
	var out []rtec.Event
	for _, ev := range o.memory {
		if ev.Entity == vessel && slices.Contains(names, ev.Name) {
			out = append(out, ev)
		}
	}
	return out
}

// during is holdsAt for a durative input ME (stopped, lowSpeed): open
// after the boundaries before t, starts ahead of ends at a timepoint, or
// up to an end at or after t that closes no open episode — the episode
// from the window start.
func (o *ceOracle) during(vessel, start, end string, t rtec.Timepoint) bool {
	if t <= o.window {
		return false
	}
	evs := o.of(vessel, start, end)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Name == start && evs[j].Name != start
	})
	open := false
	for _, ev := range evs {
		if ev.Time >= t {
			break
		}
		open = ev.Name == start
	}
	if open {
		return true
	}
	// episodeFromWindowStart: an end at or after t that closes no open
	// episode.
	open = false
	for _, ev := range evs {
		if ev.Name == start {
			open = true
			continue
		}
		if !open && ev.Time >= t {
			return true
		}
		open = false
	}
	return false
}

// activeNear counts the vessels (fishing ones only, if asked) whose
// durative ME holds at t and whose latest start ME at or before t — the
// first in the working memory among equals — was close to the area.
func (o *ceOracle) activeNear(area string, kind AreaKind, start, end string, fishingOnly bool, t rtec.Timepoint) int {
	k := [2]any{[3]string{area, start, end}, [3]int64{int64(kind), int64(t), map[bool]int64{true: 1}[fishingOnly]}}
	if n, ok := o.counts[k]; ok {
		return n
	}
	n := 0
	for entity, v := range o.vessels {
		if fishingOnly && !v.Fishing || !o.during(entity, start, end, t) {
			continue
		}
		var at *rtec.Event
		for _, ev := range o.of(entity, start) {
			if ev.Time <= t && (at == nil || ev.Time > at.Time) {
				at = &ev
			}
		}
		if at == nil {
			continue
		}
		for _, a := range o.near(*at, kind) {
			if a.ID == area {
				n++
			}
		}
	}
	o.counts[k] = n
	return n
}

type cePoint struct {
	t    rtec.Timepoint
	p    float64
	init bool
}

// points are the initiations and terminations of a durative CE of an
// area, rule by rule.
func (o *ceOracle) points(ce, area string) []cePoint {
	var out []cePoint
	add := func(ev rtec.Event, init bool) {
		p := ev.P
		if p <= 0 || p > 1 {
			p = 1
		}
		out = append(out, cePoint{ev.Time, p, init})
	}
	closeTo := func(ev rtec.Event, kind AreaKind) bool {
		return slices.ContainsFunc(o.near(ev, kind), func(a Area) bool { return a.ID == area })
	}
	stopped := func(t rtec.Timepoint) int {
		return o.activeNear(area, KindWatch, MEStopStart, MEStopEnd, false, t)
	}
	fishing := func(t rtec.Timepoint) int {
		return o.activeNear(area, KindForbiddenFishing, MEStopStart, MEStopEnd, true, t) +
			o.activeNear(area, KindForbiddenFishing, MESlowStart, MESlowEnd, true, t)
	}
	for _, ev := range o.memory {
		switch {
		case ce == CESuspicious && ev.Name == MEStopStart && closeTo(ev, KindWatch) && stopped(ev.Time+1) >= o.cfg.SuspiciousMin:
			add(ev, true)
		case ce == CESuspicious && ev.Name == MEStopEnd && closeTo(ev, KindWatch) && stopped(ev.Time+1) < o.cfg.SuspiciousMin:
			add(ev, false)
		case ce == CEIllegalFishing && o.vessels[ev.Entity].Fishing && closeTo(ev, KindForbiddenFishing):
			switch ev.Name {
			case MEStopStart, MESlowMotion:
				add(ev, true)
			case MEStopEnd, MESlowEnd:
				if fishing(ev.Time+1) == 0 {
					add(ev, false)
				}
			}
		}
	}
	return out
}

// holdsAt is inertia, or in probabilistic mode Prob-EC's belief over
// the occurrences before t at least θ.
func (o *ceOracle) holdsAt(pts []cePoint, t rtec.Timepoint) bool {
	if o.cfg.ProbThreshold > 0 {
		var times []rtec.Timepoint
		for _, p := range pts {
			if p.t < t && !slices.Contains(times, p.t) {
				times = append(times, p.t)
			}
		}
		slices.Sort(times)
		belief := 0.0
		for _, ts := range times {
			var inits, terms []float64
			for _, p := range pts {
				if p.t == ts && p.init {
					inits = append(inits, p.p)
				} else if p.t == ts {
					terms = append(terms, p.p)
				}
			}
			belief *= 1 - noisyOr(terms)
			belief += (1 - belief) * noisyOr(inits)
		}
		return belief >= o.cfg.ProbThreshold
	}
	for _, p := range pts {
		if !p.init || p.t >= t {
			continue
		}
		if !slices.ContainsFunc(pts, func(b cePoint) bool { return !b.init && b.t > p.t && b.t < t }) {
			return true
		}
	}
	return false
}

func noisyOr(ps []float64) float64 {
	slices.Sort(ps)
	q := 1.0
	for _, p := range ps {
		q *= 1 - p
	}
	return 1 - q
}

// intervals scans holdsAt over the window into maximal intervals. The
// MEs lie on a coarse grid and holdsAt can only change just after one,
// so it is asked at the first timepoint after each distinct ME time (and
// the window start) and holds on through the next.
func (o *ceOracle) intervals(pts []cePoint) rtec.IntervalList {
	cuts := []rtec.Timepoint{o.window}
	for _, ev := range o.memory {
		cuts = append(cuts, ev.Time)
	}
	slices.Sort(cuts)
	cuts = append(slices.Compact(cuts), o.horizon)
	var out rtec.IntervalList
	for i := 0; i+1 < len(cuts); i++ {
		from, to := cuts[i], cuts[i+1]
		if !o.holdsAt(pts, from+1) {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Until == from {
			out[n-1].Until = to
		} else {
			out = append(out, rtec.Interval{Since: from, Until: to})
		}
	}
	if n := len(out); n > 0 && out[n-1].Until == o.horizon {
		out[n-1].Until = rtec.Inf
	}
	return out
}

// derived lists the instantaneous CEs of the window as name/area/time.
func (o *ceOracle) derived() []rtec.Event {
	var out []rtec.Event
	for _, ev := range o.memory {
		switch ev.Name {
		case MEGap:
			for _, a := range o.near(ev, KindProtected) {
				out = append(out, rtec.Event{Name: CEIllegalShipping, Entity: a.ID, Time: ev.Time})
			}
		case MESlowMotion:
			for _, a := range o.near(ev, KindShallow) {
				if Shallow(&a, o.vessels[ev.Entity]) {
					out = append(out, rtec.Event{Name: CEDangerousShipping, Entity: a.ID, Time: ev.Time})
				}
			}
		}
	}
	return out
}

func sortedTriples(evs []rtec.Event) []rtec.Event {
	out := make([]rtec.Event, len(evs))
	for i, ev := range evs {
		out[i] = rtec.Event{Name: ev.Name, Entity: ev.Entity, Time: ev.Time}
	}
	slices.SortFunc(out, func(a, b rtec.Event) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Name, b.Name), cmp.Compare(a.Entity, b.Entity))
	})
	return out
}

// TestRecognizerMatchesECOracle runs the four maritime CE definitions
// and their time-point EC evaluation side by side on random ME streams —
// delayed MEs across window boundaries, crisp and probabilistic, and
// ω = β — and compares, at every query step, the durative CEs' maximal
// intervals (engine and Snapshot.Intervals) and the instantaneous CEs.
func TestRecognizerMatchesECOracle(t *testing.T) {
	const slide = 10 * time.Minute
	vessels, areas, spots := oracleWorld()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"crisp", Config{Window: 90 * time.Minute, SuspiciousMin: 2}},
		{"probabilistic", Config{Window: 90 * time.Minute, SuspiciousMin: 2, ProbThreshold: 0.5}},
		{"tumbling", Config{Window: slide, SuspiciousMin: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.withDefaults()
			held := 0
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				rec := NewRecognizer(cfg, vessels, areas)
				byMMSI := make(map[string]Vessel)
				for _, v := range vessels {
					byMMSI[v.Entity()] = v
				}
				for k := 1; k <= 20; k++ {
					q := t0.Add(time.Duration(k) * slide)
					snap := rec.Advance(q, oracleEvents(rng, q, slide, cfg.Window, vessels, spots), nil)
					o := &ceOracle{
						cfg: cfg, vessels: byMMSI, areas: areas,
						memory: rec.Engine().Snapshot().Memory,
						window: q.Add(-cfg.Window).Unix(), horizon: q.Unix() + 2,
						counts: make(map[[2]any]int),
					}
					for _, ev := range o.memory {
						o.horizon = max(o.horizon, ev.Time+2)
					}
					want := make(map[rtec.FluentKey]rtec.IntervalList)
					for _, a := range areas {
						for _, ce := range []string{CESuspicious, CEIllegalFishing} {
							if ivs := o.intervals(o.points(ce, a.ID)); len(ivs) > 0 {
								want[rtec.FluentKey{Fluent: ce, Entity: a.ID, Value: rtec.True}] = ivs
							}
						}
					}
					got := make(map[rtec.FluentKey]rtec.IntervalList)
					for key, ivs := range snap.Intervals {
						if len(ivs) > 0 {
							got[key] = ivs
						}
						if eng := rec.Engine().HoldsFor(key); !reflect.DeepEqual(eng, ivs) {
							t.Fatalf("seed %d slide %d: Snapshot.Intervals[%v] = %v, engine holds %v", seed, k, key, ivs, eng)
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d slide %d: durative CEs differ\n got %v\nwant %v", seed, k, got, want)
					}
					held += len(got)
					gotD, wantD := sortedTriples(rec.Engine().Derived()), sortedTriples(o.derived())
					if !slices.Equal(gotD, wantD) {
						t.Fatalf("seed %d slide %d: instantaneous CEs differ\n got %v\nwant %v", seed, k, gotD, wantD)
					}
				}
			}
			if held == 0 {
				t.Fatal("no durative CE ever held: the streams exercise nothing")
			}
		})
	}
}

// sameRecognizer compares what two recognizers derived: the engine's
// instances and derived events, the durative CEs and their interval
// count, and the count fluents.
func sameRecognizer(t *testing.T, what string, got, want *Recognizer) {
	t.Helper()
	if g, w := got.engine.Fluents(), want.engine.Fluents(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: engine instances differ\n got %v\nwant %v", what, g, w)
	}
	if g, w := got.engine.Derived(), want.engine.Derived(); !slices.Equal(g, w) {
		t.Fatalf("%s: derived events differ\n got %v\nwant %v", what, g, w)
	}
	if !reflect.DeepEqual(got.intervals, want.intervals) || got.held != want.held {
		t.Fatalf("%s: durative CEs differ (%d vs %d intervals)\n got %v\nwant %v", what, got.held, want.held, got.intervals, want.intervals)
	}
	for _, c := range [][2]*countFluent{{&got.stopped, &want.stopped}, {&got.fishing, &want.fishing}} {
		if !reflect.DeepEqual(c[0].areas, c[1].areas) || !reflect.DeepEqual(c[0].held, c[1].held) {
			t.Fatalf("%s: count fluent %s differs\n got %v\nwant %v", what, c[0].name, c[0].held, c[1].held)
		}
	}
}

// TestRecognizerIncrementalMatchesFromScratch holds the incremental
// recognizer, after every slide, to a recognizer that derives the same
// working memory from scratch (RestoreSnapshot's rescan), in both
// spatial modes, crisp and probabilistic; in mid-stream the recognizer is
// replaced by one restored from its snapshot, and later by one restored
// from an older snapshot that replays the slides since — core's rewind
// after a fault — which must also equal the live one.
func TestRecognizerIncrementalMatchesFromScratch(t *testing.T) {
	const window, slide = 90 * time.Minute, 10 * time.Minute
	vessels, areas, spots := oracleWorld()
	for _, cfg := range []Config{
		{Window: window, SuspiciousMin: 2},
		{Window: window, SuspiciousMin: 2, Mode: SpatialFacts},
		{Window: window, SuspiciousMin: 2, ProbThreshold: 0.5},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rec := NewRecognizer(cfg, vessels, areas)
			gen := NewFactGenerator(areas, 3000)
			restoreAt, replayAt := 3+rng.Intn(10), 14+rng.Intn(10)
			type slideIn struct {
				q      time.Time
				events []rtec.Event
				facts  []SpatialFact
			}
			var base RecognizerSnapshot
			var journal []slideIn
			for k := 1; k <= 26; k++ {
				if k%8 == 1 {
					base, journal = rec.Snapshot(), nil
				}
				q := t0.Add(time.Duration(k) * slide)
				in := slideIn{q: q, events: oracleEvents(rng, q, slide, window, vessels, spots)}
				if cfg.Mode == SpatialFacts {
					in.facts = slices.Clone(gen.Facts(in.events))
				}
				journal = append(journal, in)
				live := rec.Advance(q, in.events, in.facts)
				what := fmt.Sprintf("%+v seed %d slide %d", cfg, seed, k)
				scratch := NewRecognizer(cfg, vessels, areas)
				scratch.RestoreSnapshot(rec.Snapshot())
				sameRecognizer(t, what, rec, scratch)
				if live.Recognized != len(scratch.engine.Derived())+scratch.held {
					t.Fatalf("%s: Recognized = %d, from scratch %d", what, live.Recognized, len(scratch.engine.Derived())+scratch.held)
				}
				switch k {
				case restoreAt:
					rec = scratch
				case replayAt:
					healed := NewRecognizer(cfg, vessels, areas)
					healed.RestoreSnapshot(base)
					for _, sl := range journal {
						healed.Advance(sl.q, sl.events, sl.facts)
					}
					sameRecognizer(t, what+" (healed)", healed, rec)
					rec = healed
				}
			}
		}
	}
}
