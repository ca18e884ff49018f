package rtec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// The structures the persistent working-memory index replaced, kept as
// the differential oracle: the per-step index rebuilt from the working
// memory (occurrences filtered by name, grouped by entity, built-in
// events synthesized for every computed instance), the map-walking
// EntitiesHolding, the sort-everything working memory and the
// map-and-merge input-fluent pairing.

// memoryLists filters the working memory by name.
func memoryLists(memory []Event) map[string][]Event {
	out := make(map[string][]Event)
	for _, ev := range memory {
		out[ev.Name] = append(out[ev.Name], ev)
	}
	return out
}

// visitedRun is one visit of EntityRuns.
type visitedRun struct {
	Entity string
	Run    []Event
}

// memoryRuns groups one name's occurrences by entity, in entity order.
func memoryRuns(list []Event) []visitedRun {
	var out []visitedRun
	for _, ev := range list {
		i := sort.Search(len(out), func(i int) bool { return out[i].Entity >= ev.Entity })
		if i == len(out) || out[i].Entity != ev.Entity {
			out = slices.Insert(out, i, visitedRun{Entity: ev.Entity})
		}
		out[i].Run = append(out[i].Run, ev)
	}
	return out
}

// indexedRuns collects what EntityRuns visits.
func indexedRuns(c *Ctx, name string) []visitedRun {
	var out []visitedRun
	c.EntityRuns(name, func(entity string, run []Event) {
		out = append(out, visitedRun{entity, run})
	})
	return out
}

func sameRuns(a, b []visitedRun) bool {
	return slices.EqualFunc(a, b, func(x, y visitedRun) bool { return x.Entity == y.Entity && slices.Equal(x.Run, y.Run) })
}

// synthesizedMarkers is what the per-step index held under a built-in
// name: the working memory's occurrences of the name, then the start (or
// end) event of every computed fluent=true interval, instance by
// instance in entity order, stable-sorted by time.
func synthesizedMarkers(lists map[string][]Event, fluents map[FluentKey]IntervalList, name, fluent string, end bool) []Event {
	out := slices.Clone(lists[name])
	var keys []FluentKey
	for key := range fluents {
		if key.Fluent == fluent && key.Value == True {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, compareFluentKey)
	for _, key := range keys {
		for _, iv := range fluents[key] {
			switch {
			case !end:
				out = append(out, Event{Name: name, Entity: key.Entity, Time: iv.Since})
			case !iv.Open():
				out = append(out, Event{Name: name, Entity: key.Entity, Time: iv.Until})
			}
		}
	}
	slices.SortStableFunc(out, compareEventTime)
	return out
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

// TestIndexMatchesNaiveScans holds the persistent index to the per-step
// one it replaced, rebuilt from the working memory: inside every rule
// firing, EventsNamed and EntityRuns of every input name and the
// built-in events of an input fluent and of simple fluents computed
// before, during and after the asking definition; after every step the
// index itself (no list, run or name more or less than the memory
// holds), the working memory and the input-fluent intervals — through
// late-in-window arrivals, equal timestamps and a snapshot/restore at a
// random step. Forty streams are fixed; one more is new to every run.
func TestIndexMatchesNaiveScans(t *testing.T) {
	const step, window = 100, 250
	stopped := InputFluent{Name: "stopped", StartEvent: "stopStart", EndEvent: "stopEnd"}
	markers := [][3]string{
		{"start:stopped", "stopped"}, {"end:stopped", "stopped", "end"},
		{"start:busy", "busy"}, {"end:busy", "busy", "end"}, {"start:absent", "absent"},
	}
	for i := int64(0); i <= 40; i++ {
		seed := i
		if i == 40 {
			seed = time.Now().UnixNano()
		}
		rng := rand.New(rand.NewSource(seed))
		fired := 0
		// Every trigger compares what the index answers with the rebuilt
		// index, over input, derived and built-in event lists alike.
		var lists map[string][]Event // the step's working memory by name
		runs := make(map[string][]visitedRun)
		probe := func(ctx *Ctx, ev Event) []string {
			if fired++; lists == nil {
				lists = memoryLists(ctx.engine.memory.events())
				clear(runs)
				for name, list := range lists {
					runs[name] = memoryRuns(list)
				}
			}
			for _, name := range []string{"stopStart", "stopEnd", "ping", "ping2", "absent"} {
				if got, want := ctx.EventsNamed(name), lists[name]; !slices.Equal(got, want) {
					t.Errorf("seed %d q %d: EventsNamed(%s) = %v, memory holds %v", seed, ctx.Query, name, got, want)
				}
				if got, want := indexedRuns(ctx, name), runs[name]; !sameRuns(got, want) {
					t.Errorf("seed %d q %d: EntityRuns(%s) = %v, memory holds %v", seed, ctx.Query, name, got, want)
				}
			}
			for _, m := range markers {
				got, want := ctx.EventsNamed(m[0]), synthesizedMarkers(lists, ctx.fluents, m[0], m[1], m[2] == "end")
				if !slices.Equal(got, want) {
					t.Errorf("seed %d q %d: EventsNamed(%s) = %v, synthesized %v", seed, ctx.Query, m[0], got, want)
				}
			}
			return []string{ev.Entity}
		}
		build := func() *Engine {
			e := NewEngine(window)
			e.DeclareInputFluent(stopped)
			e.DefineEvent(EventDef{Name: "echo", Rules: []TriggerRule{{Event: "ping", Map: probe}}})
			e.DefineEvent(EventDef{Name: "echo2", Rules: []TriggerRule{{Event: "echo", Map: probe}}})
			e.DefineSimpleFluent(SimpleFluentDef{
				Name: "busy",
				Init: map[string][]TriggerRule{True: {{Event: "start:stopped", Map: probe}}},
				Term: map[string][]TriggerRule{True: {{Event: "ping2", Map: probe}}},
			})
			// idle reads busy's built-in events, and also fires on ping2, so
			// the probe looks at them after busy changed, whatever they hold.
			e.DefineSimpleFluent(SimpleFluentDef{
				Name: "idle",
				Init: map[string][]TriggerRule{True: {{Event: "end:busy", Map: probe}}},
				Term: map[string][]TriggerRule{True: {{Event: "start:busy", Map: probe}, {Event: "ping2", Map: probe}}},
			})
			return e
		}
		e := build()
		model, serial := naiveMemory{window: window}, 0
		restoreAt := Timepoint(1+rng.Intn(11)) * step
		for q := Timepoint(step); q <= 12*step; q += step {
			if q == restoreAt {
				snap := e.Snapshot()
				e = build()
				e.Restore(snap)
			}
			in := oracleStream(rng, q, step, &serial)
			lists = nil
			res := e.Advance(q, in)
			model.advance(q, in)
			if memory := e.memory.events(); !slices.Equal(memory, model.memory) {
				t.Fatalf("seed %d q %d: working memory diverged\n got %v\nwant %v", seed, q, memory, model.memory)
			}
			byName := memoryLists(model.memory)
			if len(e.lists) != len(byName) {
				t.Fatalf("seed %d q %d: index holds %d names, memory %d", seed, q, len(e.lists), len(byName))
			}
			for name, want := range byName {
				l := e.lists[name]
				if l == nil || !slices.Equal(l.events(), want) {
					t.Fatalf("seed %d q %d: index list %s diverged from memory's %v", seed, q, name, want)
				}
				if l.runs == nil {
					continue
				}
				var got []visitedRun
				for _, r := range l.entityRuns() {
					got = append(got, visitedRun{r.entity, r.events()})
				}
				if want := memoryRuns(want); len(l.runs) != len(want) || !sameRuns(got, want) {
					t.Fatalf("seed %d q %d: runs of %s = %v (%d indexed), memory holds %v", seed, q, name, got, len(l.runs), want)
				}
			}
			for key, want := range naiveInputFluent(model.memory, stopped, q-window) {
				if got, ok := res.Fluents()[key]; !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d q %d: %v = %v (present %v), pairing scan says %v", seed, q, key, got, ok, want)
				}
			}
			for i := 1; i < len(res.Derived); i++ {
				if res.Derived[i].Time < res.Derived[i-1].Time {
					t.Fatalf("seed %d q %d: derived events out of order: %v", seed, q, res.Derived)
				}
			}
		}
		if fired == 0 {
			t.Fatalf("seed %d: no rule fired", seed)
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

// TestEventsNamedMergesDerivedWithInput pins EventsNamed for a name that
// arrives as input and is also derived: one chronological list, input
// occurrences ahead of derived ones at equal times — and only the input
// ones in a step that derives none, though the step index still holds
// the list's storage from the step before.
func TestEventsNamedMergesDerivedWithInput(t *testing.T) {
	e := NewEngine(1000)
	e.DefineEvent(EventDef{Name: "echo", Rules: []TriggerRule{{
		Event: "ping", Map: func(_ *Ctx, ev Event) []string { return []string{"d"} },
	}}})
	var seen []Event
	e.DefineEvent(EventDef{Name: "look", Rules: []TriggerRule{{
		Event: "tick",
		Map: func(ctx *Ctx, _ Event) []string {
			seen = slices.Clone(ctx.EventsNamed("echo"))
			return nil
		},
	}}})
	e.Advance(100, []Event{
		{Name: "echo", Entity: "a", Time: 20}, {Name: "ping", Entity: "p", Time: 20},
		{Name: "ping", Entity: "p", Time: 10}, {Name: "tick", Entity: "t", Time: 30},
	})
	want := []Event{
		{Name: "echo", Entity: "d", Time: 10}, {Name: "echo", Entity: "a", Time: 20}, {Name: "echo", Entity: "d", Time: 20},
	}
	if !slices.Equal(seen, want) {
		t.Errorf("step 1: EventsNamed(echo) = %v, want %v", seen, want)
	}
	e.Advance(1050, []Event{{Name: "echo", Entity: "b", Time: 1040}, {Name: "tick", Entity: "t", Time: 1045}})
	want = []Event{{Name: "echo", Entity: "b", Time: 1040}}
	if !slices.Equal(seen, want) {
		t.Errorf("step 2, nothing derived: EventsNamed(echo) = %v, want %v", seen, want)
	}
}
