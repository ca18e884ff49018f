package rtec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The linear scans the indexed working memory replaced, kept as the
// differential oracle: the latest-event scan over EventsNamed, the
// map-walking EntitiesHolding, the sort-everything working memory and
// the map-and-merge input-fluent pairing.

// naiveLastEvent scans every window occurrence of the names.
func naiveLastEvent(c *Ctx, entity string, t Timepoint, names ...string) (Event, bool) {
	var best Event
	found := false
	for _, name := range names {
		for _, ev := range c.EventsNamed(name) {
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

// naiveEntitiesHolding walks the whole fluent map and sorts.
func naiveEntitiesHolding(c *Ctx, fluent, value string, t Timepoint) []string {
	var out []string
	for key, ivs := range c.fluents {
		if key.Fluent == fluent && key.Value == value && ivs.HoldsAt(t) {
			out = append(out, key.Entity)
		}
	}
	sort.Strings(out)
	return out
}

// naiveMemory is the working memory as a whole-slice filter and stable
// sort per step.
type naiveMemory struct {
	window  Timepoint
	memory  []Event
	pending []Event
}

func (m *naiveMemory) advance(q Timepoint, incoming []Event) {
	windowStart := q - m.window
	carry := m.pending
	m.pending = nil
	for _, batch := range [2][]Event{carry, incoming} {
		for _, ev := range batch {
			switch {
			case ev.Time > q:
				m.pending = append(m.pending, ev)
			case ev.Time > windowStart:
				m.memory = append(m.memory, ev)
			}
		}
	}
	var live []Event
	for _, ev := range m.memory {
		if ev.Time > windowStart {
			live = append(live, ev)
		}
	}
	m.memory = live
	slices.SortStableFunc(m.memory, compareEventTime)
}

// naiveInputFluent pairs start/end events through a per-entity state
// map over the time-merged occurrences.
func naiveInputFluent(memory []Event, f InputFluent, windowStart Timepoint) map[FluentKey]IntervalList {
	type state struct {
		open      bool
		since     Timepoint
		intervals []Interval
	}
	states := make(map[string]*state)
	var merged []Event
	for _, name := range []string{f.StartEvent, f.EndEvent} {
		for _, ev := range memory {
			if ev.Name == name {
				merged = append(merged, ev)
			}
		}
	}
	slices.SortStableFunc(merged, compareEventTime)
	for _, ev := range merged {
		s := states[ev.Entity]
		if s == nil {
			s = &state{}
			states[ev.Entity] = s
		}
		if ev.Name == f.StartEvent {
			if !s.open {
				s.open, s.since = true, ev.Time
			}
			continue
		}
		since := s.since
		if !s.open {
			since = windowStart
		}
		s.intervals = append(s.intervals, Interval{Since: since, Until: ev.Time})
		s.open = false
	}
	out := make(map[FluentKey]IntervalList)
	for entity, s := range states {
		if s.open {
			s.intervals = append(s.intervals, Interval{Since: s.since, Until: Inf})
		}
		out[FluentKey{Fluent: f.Name, Entity: entity, Value: True}] = Normalize(s.intervals)
	}
	return out
}

// oracleStream draws events over a handful of entities on a coarse time
// grid, so equal timestamps are the rule within a step and across
// steps, delayed by up to three steps, so some arrive straddling the
// window edge (the paper's Figure 5) and some too late, and now and
// then ahead of the query time. serial tells co-timed occurrences apart.
func oracleStream(rng *rand.Rand, q, step Timepoint, serial *int) []Event {
	names := []string{"stopStart", "stopEnd", "ping", "ping2"}
	out := make([]Event, 5+rng.Intn(25))
	for i := range out {
		*serial++
		out[i] = Event{
			Name:   names[rng.Intn(len(names))],
			Entity: fmt.Sprintf("v%d", rng.Intn(6)),
			Time:   q + step/2 - Timepoint(rng.Intn(int(3*step+step/2)))/10*10,
			Lon:    float64(*serial),
		}
	}
	return out
}

func TestIndexMatchesNaiveScans(t *testing.T) {
	const step, window = 100, 250
	stopped := InputFluent{Name: "stopped", StartEvent: "stopStart", EndEvent: "stopEnd"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(window)
		e.DeclareInputFluent(stopped)
		// Every trigger compares each indexed query with its scan, over
		// input, derived and built-in event lists alike.
		probe := func(ctx *Ctx, ev Event) []string {
			for i := 0; i < 6; i++ {
				entity := fmt.Sprintf("v%d", i)
				for _, names := range [][]string{
					{"stopStart"}, {"stopStart", "stopEnd"}, {"stopEnd", "stopStart"},
					{"ping", "echo"}, {"start:stopped", "end:stopped"}, {"absent"},
				} {
					for _, at := range []Timepoint{ev.Time - 1, ev.Time, ev.Time + 1} {
						got, gok := ctx.LastEvent(entity, at, names...)
						want, wok := naiveLastEvent(ctx, entity, at, names...)
						if got != want || gok != wok {
							t.Errorf("seed %d q %d: LastEvent(%s, %d, %v) = %v %v, scan says %v %v",
								seed, ctx.Query, entity, at, names, got, gok, want, wok)
						}
					}
				}
			}
			got := ctx.EntitiesHolding(nil, "stopped", True, ev.Time+1)
			if want := naiveEntitiesHolding(ctx, "stopped", True, ev.Time+1); !slices.Equal(got, want) {
				t.Errorf("seed %d q %d: EntitiesHolding at %d = %v, map walk says %v",
					seed, ctx.Query, ev.Time+1, got, want)
			}
			return got
		}
		e.DefineEvent(EventDef{Name: "echo", Rules: []TriggerRule{{Event: "ping", Map: probe}}})
		e.DefineEvent(EventDef{Name: "echo2", Rules: []TriggerRule{{Event: "echo", Map: probe}}})
		e.DefineSimpleFluent(SimpleFluentDef{
			Name: "busy",
			Init: map[string][]TriggerRule{True: {{Event: "start:stopped", Map: probe}}},
			Term: map[string][]TriggerRule{True: {{Event: "ping2", Map: probe}}},
		})

		model, serial := naiveMemory{window: window}, 0
		for q := Timepoint(step); q <= 12*step; q += step {
			in := oracleStream(rng, q, step, &serial)
			res := e.Advance(q, in)
			model.advance(q, in)
			if !reflect.DeepEqual(e.memory, model.memory) && len(e.memory)+len(model.memory) > 0 {
				t.Fatalf("seed %d q %d: working memory diverged\n got %v\nwant %v", seed, q, e.memory, model.memory)
			}
			for key, want := range naiveInputFluent(model.memory, stopped, q-window) {
				if got, ok := res.Fluents[key]; !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d q %d: %v = %v (present %v), pairing scan says %v", seed, q, key, got, ok, want)
				}
			}
			for i := 1; i < len(res.Derived); i++ {
				if res.Derived[i].Time < res.Derived[i-1].Time {
					t.Fatalf("seed %d q %d: derived events out of order: %v", seed, q, res.Derived)
				}
			}
		}
	}
}

// TestEventsNamedChronological pins the EventsNamed contract for the
// built-in start/end events: they are synthesized entity by entity, and
// a rule reading them must still see one chronological list.
func TestEventsNamedChronological(t *testing.T) {
	e := NewEngine(1000)
	e.DeclareInputFluent(InputFluent{Name: "stopped", StartEvent: "stopStart", EndEvent: "stopEnd"})
	seen := make(map[string][]Event)
	e.DefineEvent(EventDef{Name: "look", Rules: []TriggerRule{{
		Event: "tick",
		Map: func(ctx *Ctx, ev Event) []string {
			for _, name := range []string{"start:stopped", "end:stopped"} {
				seen[name] = slices.Clone(ctx.EventsNamed(name))
			}
			return nil
		},
	}}})
	// Two entities whose episodes interleave: a(10,40] b(20,30] a(50,80] b(60,70].
	e.Advance(500, []Event{
		{Name: "stopStart", Entity: "a", Time: 10}, {Name: "stopStart", Entity: "b", Time: 20},
		{Name: "stopEnd", Entity: "b", Time: 30}, {Name: "stopEnd", Entity: "a", Time: 40},
		{Name: "stopStart", Entity: "a", Time: 50}, {Name: "stopStart", Entity: "b", Time: 60},
		{Name: "stopEnd", Entity: "b", Time: 70}, {Name: "stopEnd", Entity: "a", Time: 80},
		{Name: "tick", Entity: "clock", Time: 100},
	})
	want := map[string][]Event{
		"start:stopped": {
			{Name: "start:stopped", Entity: "a", Time: 10}, {Name: "start:stopped", Entity: "b", Time: 20},
			{Name: "start:stopped", Entity: "a", Time: 50}, {Name: "start:stopped", Entity: "b", Time: 60},
		},
		"end:stopped": {
			{Name: "end:stopped", Entity: "b", Time: 30}, {Name: "end:stopped", Entity: "a", Time: 40},
			{Name: "end:stopped", Entity: "b", Time: 70}, {Name: "end:stopped", Entity: "a", Time: 80},
		},
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("built-in events not chronological:\n got %v\nwant %v", seen, want)
	}
}

// TestStatsDefinitions pins the per-definition timing: one entry per
// registered definition in evaluation order (input fluents, derived
// events, fluents), accumulated over query steps, and left out of
// snapshots, which must encode engine state only.
func TestStatsDefinitions(t *testing.T) {
	e := NewEngine(1000)
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	e.DefineEvent(EventDef{Name: "echo", Rules: []TriggerRule{{
		Event: "ping", Map: func(*Ctx, Event) []string { return []string{"x"} },
	}}})
	e.DeclareInputFluent(InputFluent{Name: "stopped", StartEvent: "stopStart", EndEvent: "stopEnd"})
	e.DefineStaticFluent(StaticFluentDef{Name: "idle", Entities: []string{"a"},
		Compute: func(*Ctx, string) IntervalList { return nil }})
	var names []string
	for step := Timepoint(1); step <= 3; step++ {
		e.Advance(100*step, []Event{{Name: "ping", Entity: "a", Time: 100*step - 1}})
	}
	for _, d := range e.Stats().Definitions {
		names = append(names, d.Name)
		if d.Time <= 0 {
			t.Errorf("definition %s accumulated %v over three steps", d.Name, d.Time)
		}
	}
	if want := []string{"stopped", "echo", "busy", "idle"}; !slices.Equal(names, want) {
		t.Errorf("definitions = %v, want %v", names, want)
	}
	if defs := e.Snapshot().Stats.Definitions; defs != nil {
		t.Errorf("snapshot carries wall-clock timings: %v", defs)
	}
}
