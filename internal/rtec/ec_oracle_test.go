package rtec

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// A time-point Event Calculus evaluator: the independent oracle of the
// engine's maximal intervals. It has no windows of its own, no interval
// caching and no index. holdsAt(F=V, t) follows inertia over the
// initiations and terminations of the events it is given, and maximal
// intervals come from asking holdsAt at every timepoint. It is given
// what RTEC's working memory holds at the query time — the events
// naiveMemory keeps — and encodes, each in one named function, the two
// places where RTEC's windowed reasoning deliberately departs from
// unbounded EC (paper §4.2):
//
//   - forgottenBeforeWindow: an event at or before q−ω is not in the
//     working memory, and one that arrives after its window has passed
//     is lost for good (Figure 5: a delayed event is used only while it
//     is inside the window of some query time it reaches);
//   - episodeFromWindowStart: a durative input ME's end whose start is
//     not in the working memory stands for an episode that began before
//     the window, so the fluent holds from the window start to the end.
//
// Everything else — inertia, the break of one value by the initiation
// of another, rules that consult other fluents, derived events feeding
// fluents, Prob-EC's probabilistic inertia — is plain EC over the
// window's events.

// forgottenBeforeWindow is §4.2's first difference: the oracle reasons
// over the working memory the window semantics leave at q, not over
// every event ever delivered. It returns those events.
func forgottenBeforeWindow(m *naiveMemory) []Event { return m.memory }

// ecOracle evaluates the test event description at one query time.
type ecOracle struct {
	window      Timepoint // q − ω
	horizon     Timepoint // past every event: what holds there holds forever
	events      []Event   // the working memory, chronological
	theta       float64
	derivedEcho []Event
	builtins    bool // withBuiltins' description: the static both and lit
}

func newECOracle(memory []Event, q, window Timepoint, theta float64) *ecOracle {
	o := &ecOracle{window: q - window, horizon: q + 2, events: memory, theta: theta}
	for _, ev := range memory {
		o.horizon = max(o.horizon, ev.Time+2)
	}
	// echo(X) happens at T when ping(X) happens at T while stopped(X).
	for _, ev := range memory {
		if ev.Name == "ping" && o.stoppedAt(ev.Entity, ev.Time) {
			o.derivedEcho = append(o.derivedEcho, Event{Name: "echo", Entity: ev.Entity, Time: ev.Time, Lon: ev.Lon, Lat: ev.Lat})
		}
	}
	return o
}

// happens returns the occurrences of a name for an entity, derived echo
// included.
func (o *ecOracle) happens(name, entity string) []Event {
	var out []Event
	src := o.events
	if name == "echo" {
		src = o.derivedEcho
	}
	for _, ev := range src {
		if ev.Name == name && ev.Entity == entity {
			out = append(out, ev)
		}
	}
	return out
}

// stoppedAt is holdsAt(stopped(X)=true, t) for the durative input ME:
// an episode opened by a start holds until (and at) the end that closes
// it; starts at a time come before ends at that time.
func (o *ecOracle) stoppedAt(x string, t Timepoint) bool {
	if t <= o.window {
		return false
	}
	open := false
	for _, ev := range o.boundaries(x) {
		if ev.Time >= t {
			break
		}
		open = ev.Name == "stopStart"
	}
	return open || episodeFromWindowStart(o, x, t)
}

// boundaries returns X's start and end MEs in time order, starts first
// at equal times.
func (o *ecOracle) boundaries(x string) []Event {
	evs := append(o.happens("stopStart", x), o.happens("stopEnd", x)...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Name == "stopStart" && evs[j].Name != "stopStart"
	})
	return evs
}

// episodeFromWindowStart is §4.2's second difference: an end ME at or
// after t that closes no open episode — its start left the working
// memory or never arrived — means the fluent held from the window start
// up to that end.
func episodeFromWindowStart(o *ecOracle, x string, t Timepoint) bool {
	open := false
	for _, ev := range o.boundaries(x) {
		if ev.Name == "stopStart" {
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

// point is one initiation or termination of a fluent value.
type point struct {
	t    Timepoint
	p    float64
	init bool
}

// points lists the initiations and terminations of F(X)=V that the test
// event description's rules yield over the window.
func (o *ecOracle) points(fluent, x, value string) []point {
	var out []point
	add := func(name string, init bool, cond func(Event) bool) {
		for _, ev := range o.happens(name, x) {
			if cond == nil || cond(ev) {
				out = append(out, point{ev.Time, certainty(ev), init})
			}
		}
	}
	switch fluent + "=" + value {
	case "busy=true":
		add("begin", true, nil)
		add("finish", false, nil)
	case "light=red":
		add("toRed", true, nil)
		add("toGreen", false, nil) // another value's initiation breaks red
	case "light=green":
		add("toGreen", true, nil)
		add("toRed", false, nil)
		add("off", false, nil)
	case "alarm=true":
		add("ping", true, func(ev Event) bool { return o.stoppedAt(x, ev.Time) })
		add("pong", false, nil)
	case "watch=true":
		add("echo", true, nil)
		add("finish", false, nil)
	}
	return out
}

// holdsAt is EC's inertia: F=V holds at t when it was initiated at some
// ts < t and nothing broke it strictly between ts and t. In
// probabilistic mode a Boolean fluent holds where its belief — evolved
// over every occurrence before t, terminations before initiations at a
// timepoint, co-timed ones composed noisy-or — is at least θ.
func (o *ecOracle) holdsAt(pts []point, t Timepoint, prob bool) bool {
	if prob {
		byTime := map[Timepoint][2][]float64{}
		var times []Timepoint
		for _, p := range pts {
			if p.t >= t {
				continue
			}
			e, ok := byTime[p.t]
			if !ok {
				times = append(times, p.t)
			}
			if p.init {
				e[0] = append(e[0], p.p)
			} else {
				e[1] = append(e[1], p.p)
			}
			byTime[p.t] = e
		}
		slices.Sort(times)
		belief := 0.0
		for _, ts := range times {
			e := byTime[ts]
			belief *= 1 - noisyOr(e[1])
			belief += (1 - belief) * noisyOr(e[0])
		}
		return belief >= o.theta
	}
	for _, p := range pts {
		if !p.init || p.t >= t {
			continue
		}
		broken := false
		for _, b := range pts {
			if !b.init && b.t > p.t && b.t < t {
				broken = true
			}
		}
		if !broken {
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

// scan turns holdsAt into maximal intervals by asking it at every
// timepoint of the window; holding past every event means ongoing.
func (o *ecOracle) scan(holds func(t Timepoint) bool) IntervalList {
	var out IntervalList
	for t := o.window + 1; t <= o.horizon; t++ {
		if !holds(t) {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Until == t-1 {
			out[n-1].Until = t
		} else {
			out = append(out, Interval{Since: t - 1, Until: t})
		}
	}
	if n := len(out); n > 0 && out[n-1].Until == o.horizon {
		out[n-1].Until = Inf
	}
	return out
}

// fluents computes every instance of the test event description.
func (o *ecOracle) fluents(entities []string) map[FluentKey]IntervalList {
	out := map[FluentKey]IntervalList{}
	set := func(key FluentKey, ivs IntervalList) {
		if len(ivs) > 0 {
			out[key] = ivs
		}
	}
	for _, x := range entities {
		set(FluentKey{"stopped", x, True}, o.scan(func(t Timepoint) bool { return o.stoppedAt(x, t) }))
		for _, fv := range [][2]string{{"busy", True}, {"light", "red"}, {"light", "green"}, {"alarm", True}, {"watch", True}} {
			pts := o.points(fv[0], x, fv[1])
			prob := o.theta > 0 && fv[1] == True
			set(FluentKey{fv[0], x, fv[1]}, o.scan(func(t Timepoint) bool { return o.holdsAt(pts, t, prob) }))
		}
		if o.builtins {
			o.builtinFluents(x, set)
		}
	}
	return out
}

// builtinFluents adds withBuiltins' two fluents: both(X), statically
// busy(X) ∧ stopped(X) for the entities with a begin event in the
// window, and lit(X), initiated by the built-in start(stopped(X)) and
// terminated by end(both(X)) — the built-in events are the starts and
// the (closed) ends of the oracle's own maximal intervals.
func (o *ecOracle) builtinFluents(x string, set func(FluentKey, IntervalList)) {
	busy := o.points("busy", x, True)
	both := IntervalList(nil)
	if len(o.happens("begin", x)) > 0 {
		both = o.scan(func(t Timepoint) bool { return o.holdsAt(busy, t, o.theta > 0) && o.stoppedAt(x, t) })
		set(FluentKey{"both", x, True}, both)
	}
	var lit []point
	for _, iv := range o.scan(func(t Timepoint) bool { return o.stoppedAt(x, t) }) {
		lit = append(lit, point{iv.Since, 1, true})
	}
	for _, iv := range both {
		if !iv.Open() {
			lit = append(lit, point{iv.Until, 1, false})
		}
	}
	set(FluentKey{"lit", x, True}, o.scan(func(t Timepoint) bool { return o.holdsAt(lit, t, o.theta > 0) }))
}

// ecEngine registers the test event description: an input fluent, a
// derived event that consults it, a Boolean fluent, a multi-valued one,
// one whose initiation consults the input fluent and one initiated by
// the derived event.
func ecEngine(window Timepoint, theta float64) *Engine {
	e := NewEngine(window)
	identity := func(_ *Ctx, ev Event) []string { return []string{ev.Entity} }
	whileStopped := func(ctx *Ctx, ev Event) []string {
		if ctx.HoldsAt("stopped", ev.Entity, True, ev.Time) {
			return []string{ev.Entity}
		}
		return nil
	}
	e.DeclareInputFluent(InputFluent{Name: "stopped", StartEvent: "stopStart", EndEvent: "stopEnd"})
	e.DefineEvent(EventDef{Name: "echo", Rules: []TriggerRule{{Event: "ping", Map: whileStopped}}})
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	e.DefineSimpleFluent(SimpleFluentDef{
		Name: "light",
		Init: map[string][]TriggerRule{"red": {{Event: "toRed", Map: identity}}, "green": {{Event: "toGreen", Map: identity}}},
		Term: map[string][]TriggerRule{"green": {{Event: "off", Map: identity}}},
	})
	e.DefineSimpleFluent(SimpleFluentDef{
		Name: "alarm",
		Init: map[string][]TriggerRule{True: {{Event: "ping", Map: whileStopped}}},
		Term: map[string][]TriggerRule{True: {{Event: "pong", Map: identity}}},
	})
	e.DefineSimpleFluent(boolFluent("watch", "echo", "finish"))
	if theta > 0 {
		e.SetProbabilistic(theta)
	}
	return e
}

var ecEntities = []string{"a", "b", "c", "d"}

// ecStream draws one step's deliveries on a coarse grid: every name of
// the description, equal timestamps within and across steps, delays up
// to three steps (so some events straddle the window start and some
// arrive too late), and now and then an event ahead of the query time.
func ecStream(rng *rand.Rand, q, step Timepoint) []Event {
	names := []string{"stopStart", "stopEnd", "ping", "pong", "begin", "finish", "toRed", "toGreen", "off"}
	out := make([]Event, 3+rng.Intn(12))
	for i := range out {
		out[i] = Event{
			Name:   names[rng.Intn(len(names))],
			Entity: ecEntities[rng.Intn(len(ecEntities))],
			Time:   q + step/4 - Timepoint(rng.Intn(int(3*step+step/4)))/5*5,
			P:      []float64{0, 0.9, 0.6, 0.3}[rng.Intn(4)],
		}
	}
	return out
}

// nonEmpty drops instances without an interval (a probabilistic
// instance whose belief never reaches θ).
func nonEmpty(m map[FluentKey]IntervalList) map[FluentKey]IntervalList {
	out := map[FluentKey]IntervalList{}
	for k, v := range m {
		if len(v) > 0 {
			out[k] = v
		}
	}
	return out
}

// TestEngineMatchesECOracle holds the engine's maximal intervals and
// derived events to the time-point EC oracle on random streams, at every
// query step: delayed events across window boundaries, crisp and
// probabilistic (θ > 0), and ω = β as well as ω spanning several slides.
func TestEngineMatchesECOracle(t *testing.T) {
	for _, tc := range []struct {
		name         string
		window, step Timepoint
		theta        float64
		builtins     bool
	}{
		{"overlapping", 250, 100, 0, false},
		{"probabilistic", 250, 100, 0.5, false},
		{"tumbling", 100, 100, 0, false},
		{"tumbling-probabilistic", 100, 100, 0.5, false},
		{"static-and-builtins", 250, 100, 0, true},
		{"static-and-builtins-probabilistic", 250, 100, 0.5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held := 0
			for seed := int64(0); seed < 10; seed++ {
				runECOracle(t, seed, tc.window, tc.step, tc.theta, tc.builtins, &held)
			}
			runECOracle(t, time.Now().UnixNano(), tc.window, tc.step, tc.theta, tc.builtins, &held)
			if held == 0 {
				t.Fatal("no fluent ever held: the streams exercise nothing")
			}
		})
	}
}

func runECOracle(t *testing.T, seed int64, window, step Timepoint, theta float64, builtins bool, held *int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := ecEngine(window, theta)
	if builtins {
		e = withBuiltins(window, theta)
	}
	model := naiveMemory{window: window}
	for q := step; q <= 14*step; q += step {
		in := ecStream(rng, q, step)
		res := e.Advance(q, in)
		model.advance(q, in)
		o := newECOracle(forgottenBeforeWindow(&model), q, window, theta)
		o.builtins = builtins
		got, want := nonEmpty(res.Fluents()), o.fluents(ecEntities)
		if !reflect.DeepEqual(got, want) {
			for _, k := range keysOf(got, want) {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Errorf("seed %d q %d: %v = %v, EC says %v", seed, q, k, got[k], want[k])
				}
			}
			t.FailNow()
		}
		derived := slices.Clone(res.Derived)
		slices.SortFunc(derived, compareEvent)
		slices.SortFunc(o.derivedEcho, compareEvent)
		if !slices.Equal(derived, o.derivedEcho) {
			t.Fatalf("seed %d q %d: derived %v, EC says %v", seed, q, derived, o.derivedEcho)
		}
		*held += len(got)
	}
}

func keysOf(ms ...map[FluentKey]IntervalList) []FluentKey {
	var out []FluentKey
	for _, m := range ms {
		for k := range m {
			if !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	slices.SortFunc(out, compareFluentKey)
	return out
}

// FuzzEngineMatchesECOracle is the same comparison over fuzzed streams:
// the fuzzer picks the seed, the window and the slide.
func FuzzEngineMatchesECOracle(f *testing.F) {
	f.Add(int64(1), uint8(25), uint8(10), false, false)
	f.Add(int64(2), uint8(10), uint8(10), true, false)
	f.Add(int64(3), uint8(25), uint8(10), false, true)
	f.Fuzz(func(t *testing.T, seed int64, window, step uint8, prob, builtins bool) {
		if step == 0 || window < step {
			t.Skip()
		}
		theta := 0.0
		if prob {
			theta = 0.5
		}
		held := 0
		runECOracle(t, seed, Timepoint(window)*10, Timepoint(step)*10, theta, builtins, &held)
	})
}
