package rtec

import (
	"reflect"
	"testing"
)

// boolFluent builds a Boolean simple fluent with single init/term
// trigger events that map 1:1 on the triggering entity.
func boolFluent(name, initEvent, termEvent string) SimpleFluentDef {
	identity := func(_ *Ctx, ev Event) []string { return []string{ev.Entity} }
	return SimpleFluentDef{
		Name: name,
		Init: map[string][]TriggerRule{True: {{Event: initEvent, Map: identity}}},
		Term: map[string][]TriggerRule{True: {{Event: termEvent, Map: identity}}},
	}
}

func TestSimpleFluentInertia(t *testing.T) {
	e := NewEngine(1000)
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	res := e.Advance(100, []Event{
		{Name: "begin", Entity: "v1", Time: 10},
		{Name: "begin", Entity: "v1", Time: 20}, // re-initiation: no effect
		{Name: "finish", Entity: "v1", Time: 25},
		{Name: "finish", Entity: "v1", Time: 30}, // already broken
	})
	got := res.Fluents()[FluentKey{"busy", "v1", True}]
	want := IntervalList{iv(10, 25)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("busy(v1) = %v, want %v", got, want)
	}
}

func TestSimpleFluentOpenInterval(t *testing.T) {
	e := NewEngine(1000)
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	res := e.Advance(100, []Event{{Name: "begin", Entity: "v1", Time: 40}})
	got := res.Fluents()[FluentKey{"busy", "v1", True}]
	if len(got) != 1 || !got[0].Open() || got[0].Since != 40 {
		t.Errorf("busy(v1) = %v, want open from 40", got)
	}
	if !e.HoldsAt(FluentKey{"busy", "v1", True}, 99) {
		t.Error("HoldsAt(99) = false")
	}
}

func TestMultiValuedFluentCrossBreaking(t *testing.T) {
	// A fluent with values red/green: initiating green must break red
	// (paper rule (2)).
	identity := func(_ *Ctx, ev Event) []string { return []string{ev.Entity} }
	e := NewEngine(1000)
	e.DefineSimpleFluent(SimpleFluentDef{
		Name: "light",
		Init: map[string][]TriggerRule{
			"red":   {{Event: "toRed", Map: identity}},
			"green": {{Event: "toGreen", Map: identity}},
		},
	})
	res := e.Advance(100, []Event{
		{Name: "toRed", Entity: "x", Time: 10},
		{Name: "toGreen", Entity: "x", Time: 30},
	})
	red := res.Fluents()[FluentKey{"light", "x", "red"}]
	green := res.Fluents()[FluentKey{"light", "x", "green"}]
	if !reflect.DeepEqual(red, IntervalList{iv(10, 30)}) {
		t.Errorf("red = %v", red)
	}
	if len(green) != 1 || green[0].Since != 30 || !green[0].Open() {
		t.Errorf("green = %v", green)
	}
	// A fluent cannot have two values at once.
	for tp := Timepoint(11); tp <= 99; tp += 7 {
		if red.HoldsAt(tp) && green.HoldsAt(tp) {
			t.Fatalf("light has two values at %d", tp)
		}
	}
}

func TestInputFluentPairing(t *testing.T) {
	e := NewEngine(1000)
	e.DeclareInputFluent(InputFluent{Name: "stopped", StartEvent: "stopStart", EndEvent: "stopEnd"})
	res := e.Advance(200, []Event{
		{Name: "stopStart", Entity: "v1", Time: 50},
		{Name: "stopEnd", Entity: "v1", Time: 80},
		{Name: "stopStart", Entity: "v1", Time: 120},
	})
	got := res.Fluents()[FluentKey{"stopped", "v1", True}]
	if len(got) != 2 || got[0] != iv(50, 80) || got[1].Since != 120 || !got[1].Open() {
		t.Errorf("stopped(v1) = %v", got)
	}
}

func TestInputFluentEndWithoutStart(t *testing.T) {
	// The episode began before the working memory: the interval is open
	// on the left at the window start.
	e := NewEngine(100)
	res := func() Result {
		e.DeclareInputFluent(InputFluent{Name: "stopped", StartEvent: "stopStart", EndEvent: "stopEnd"})
		return e.Advance(200, []Event{{Name: "stopEnd", Entity: "v1", Time: 150}})
	}()
	got := res.Fluents()[FluentKey{"stopped", "v1", True}]
	if !reflect.DeepEqual(got, IntervalList{iv(100, 150)}) {
		t.Errorf("stopped(v1) = %v, want [(100,150]]", got)
	}
}

func TestEventDefWithCondition(t *testing.T) {
	// alarm(area) happens when "trigger" occurs for a vessel whose
	// longitude exceeds 10 (a stand-in for a spatial condition).
	e := NewEngine(1000)
	e.DefineEvent(EventDef{
		Name: "alarm",
		Rules: []TriggerRule{{
			Event: "trigger",
			Map: func(_ *Ctx, ev Event) []string {
				if ev.Lon > 10 {
					return []string{"area-1"}
				}
				return nil
			},
		}},
	})
	res := e.Advance(100, []Event{
		{Name: "trigger", Entity: "v1", Time: 10, Lon: 5},
		{Name: "trigger", Entity: "v2", Time: 20, Lon: 15},
	})
	if len(res.Derived) != 1 {
		t.Fatalf("derived = %v", res.Derived)
	}
	d := res.Derived[0]
	if d.Name != "alarm" || d.Entity != "area-1" || d.Time != 20 {
		t.Errorf("alarm = %+v", d)
	}
	if e.Stats().DerivedEvents != 1 {
		t.Errorf("stats.DerivedEvents = %d", e.Stats().DerivedEvents)
	}
}

func TestFluentTriggeredByStartOfInputFluent(t *testing.T) {
	// suspicious(Area) initiated by start(stopped(V)) — the chaining the
	// maritime definitions rely on. Map uses the built-in start:stopped
	// events synthesized from the input fluent.
	e := NewEngine(1000)
	e.DeclareInputFluent(InputFluent{Name: "stopped", StartEvent: "stopStart", EndEvent: "stopEnd"})
	count := func(ctx *Ctx, t Timepoint) int {
		return len(naiveEntitiesHolding(ctx, "stopped", True, t))
	}
	e.DefineSimpleFluent(SimpleFluentDef{
		Name: "suspicious",
		Init: map[string][]TriggerRule{True: {{
			Event: "start:stopped",
			Map: func(ctx *Ctx, ev Event) []string {
				if count(ctx, ev.Time+1) >= 2 {
					return []string{"zone"}
				}
				return nil
			},
		}}},
		Term: map[string][]TriggerRule{True: {{
			Event: "end:stopped",
			Map: func(ctx *Ctx, ev Event) []string {
				if count(ctx, ev.Time+1) < 2 {
					return []string{"zone"}
				}
				return nil
			},
		}}},
	})
	res := e.Advance(500, []Event{
		{Name: "stopStart", Entity: "v1", Time: 10},
		{Name: "stopStart", Entity: "v2", Time: 50}, // second vessel → suspicious
		{Name: "stopEnd", Entity: "v1", Time: 100},  // back to one → not suspicious
		{Name: "stopEnd", Entity: "v2", Time: 150},
	})
	got := res.Fluents()[FluentKey{"suspicious", "zone", True}]
	if !reflect.DeepEqual(got, IntervalList{iv(50, 100)}) {
		t.Errorf("suspicious(zone) = %v, want [(50,100]]", got)
	}
}

func TestWindowingForgetsOldEvents(t *testing.T) {
	e := NewEngine(100)
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	e.Advance(100, []Event{{Name: "begin", Entity: "v1", Time: 50}})
	if e.WorkingMemorySize() != 1 {
		t.Fatalf("memory = %d", e.WorkingMemorySize())
	}
	// Query at 300: the begin event (t=50) is before 300-100=200 → gone.
	res := e.Advance(300, nil)
	if e.WorkingMemorySize() != 0 {
		t.Errorf("memory = %d after expiry", e.WorkingMemorySize())
	}
	if got := res.Fluents()[FluentKey{"busy", "v1", True}]; got != nil {
		t.Errorf("busy derived from forgotten events: %v", got)
	}
}

func TestDelayedEventWithinWindowIsUsed(t *testing.T) {
	// The paper's Figure 5: an ME occurring before Q_{i-1} but arriving
	// after it is still considered at Q_i while inside the window.
	e := NewEngine(200)
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	e.Advance(100, nil)
	res := e.Advance(200, []Event{{Name: "begin", Entity: "v1", Time: 90}}) // delayed
	got := res.Fluents()[FluentKey{"busy", "v1", True}]
	if len(got) != 1 || got[0].Since != 90 {
		t.Errorf("delayed event ignored: %v", got)
	}
	if e.Stats().EventsLate != 0 {
		t.Errorf("EventsLate = %d", e.Stats().EventsLate)
	}
}

func TestTooLateEventDiscarded(t *testing.T) {
	e := NewEngine(100)
	e.Advance(100, nil)
	e.Advance(300, []Event{{Name: "begin", Entity: "v1", Time: 150}}) // ≤ 300-100
	if e.Stats().EventsLate != 1 {
		t.Errorf("EventsLate = %d, want 1", e.Stats().EventsLate)
	}
	if e.Stats().EventsIn != 0 {
		t.Errorf("EventsIn = %d, want 0", e.Stats().EventsIn)
	}
}

func TestFutureEventHeldPending(t *testing.T) {
	e := NewEngine(100)
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	res := e.Advance(100, []Event{{Name: "begin", Entity: "v1", Time: 150}})
	if got := res.Fluents()[FluentKey{"busy", "v1", True}]; got != nil {
		t.Errorf("future event already visible: %v", got)
	}
	res = e.Advance(200, nil)
	got := res.Fluents()[FluentKey{"busy", "v1", True}]
	if len(got) != 1 || got[0].Since != 150 {
		t.Errorf("pending event not admitted: %v", got)
	}
}

func TestOutOfOrderArrivalSameStep(t *testing.T) {
	e := NewEngine(1000)
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	// Events delivered in reverse order within one step.
	res := e.Advance(100, []Event{
		{Name: "finish", Entity: "v1", Time: 60},
		{Name: "begin", Entity: "v1", Time: 30},
	})
	got := res.Fluents()[FluentKey{"busy", "v1", True}]
	if !reflect.DeepEqual(got, IntervalList{iv(30, 60)}) {
		t.Errorf("out-of-order = %v, want [(30,60]]", got)
	}
}

func TestSetComputedFluent(t *testing.T) {
	// Statically determined fluents installed via interval manipulation.
	e := NewEngine(1000)
	e.DefineEvent(EventDef{
		Name: "check",
		Rules: []TriggerRule{{
			Event: "probe",
			Map: func(ctx *Ctx, ev Event) []string {
				ctx.SetComputedFluent(FluentKey{"zoneBusy", "z", True},
					IntervalList{iv(0, 500)})
				if ctx.HoldsAt("zoneBusy", "z", True, ev.Time) {
					return []string{"z"}
				}
				return nil
			},
		}},
	})
	res := e.Advance(400, []Event{{Name: "probe", Entity: "v", Time: 100}})
	if len(res.Derived) != 1 {
		t.Errorf("derived = %v", res.Derived)
	}
}

func TestNewEnginePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewEngine(0)
}

func TestEventAndKeyStrings(t *testing.T) {
	ev := Event{Name: "turn", Entity: "v9", Time: 42}
	if ev.String() != "happensAt(turn(v9), 42)" {
		t.Errorf("Event.String = %s", ev)
	}
	k := FluentKey{"stopped", "v9", True}
	if k.String() != "stopped(v9)=true" {
		t.Errorf("FluentKey.String = %s", k)
	}
}

// BenchmarkAdvance measures one recognition query over a realistic
// working-memory size (the paper's ω=6h ≈ 40K MEs setting).
func BenchmarkAdvance(b *testing.B) {
	const n = 40000
	events := make([]Event, n)
	for i := range events {
		name := "begin"
		if i%2 == 1 {
			name = "finish"
		}
		events[i] = Event{
			Name:   name,
			Entity: string(rune('a' + i%26)),
			Time:   Timepoint(1 + i/4),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1 << 30)
		e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
		e.Advance(Timepoint(n), events)
	}
}
