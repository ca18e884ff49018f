package rtec

import (
	"reflect"
	"testing"
)

func TestStaticFluentFromIntervalAlgebra(t *testing.T) {
	// jointActivity(pair) = intersect(busy(a), busy(b)): a statically
	// determined fluent over two simple ones.
	e := NewEngine(1000)
	e.DeclareInputFluent(InputFluent{Name: "busy", StartEvent: "begin", EndEvent: "finish"})
	e.DefineStaticFluent(StaticFluentDef{
		Name:     "joint",
		Entities: []string{"a+b"},
		Compute: func(ctx *Ctx, entity string) IntervalList {
			return Intersect(
				ctx.IntervalsOf("busy", "a", True),
				ctx.IntervalsOf("busy", "b", True),
			)
		},
	})
	res := e.Advance(500, []Event{
		{Name: "begin", Entity: "a", Time: 10},
		{Name: "finish", Entity: "a", Time: 100},
		{Name: "begin", Entity: "b", Time: 60},
		{Name: "finish", Entity: "b", Time: 200},
	})
	got := res.Fluents()[FluentKey{"joint", "a+b", True}]
	if !reflect.DeepEqual(got, IntervalList{iv(60, 100)}) {
		t.Errorf("joint = %v, want [(60,100]]", got)
	}
}

func TestStaticFluentEntitiesOf(t *testing.T) {
	// Groundings derived from the window: every entity with a "ping".
	e := NewEngine(1000)
	e.DefineStaticFluent(StaticFluentDef{
		Name: "alive",
		EntitiesOf: func(ctx *Ctx) []string {
			var out []string
			seen := map[string]bool{}
			for _, ev := range ctx.EventsNamed("ping") {
				if !seen[ev.Entity] {
					seen[ev.Entity] = true
					out = append(out, ev.Entity)
				}
			}
			return out
		},
		Compute: func(ctx *Ctx, entity string) IntervalList {
			var ivs []Interval
			for _, ev := range ctx.EventsNamed("ping") {
				if ev.Entity == entity {
					ivs = append(ivs, Interval{Since: ev.Time, Until: ev.Time + 50})
				}
			}
			return Normalize(ivs)
		},
	})
	res := e.Advance(400, []Event{
		{Name: "ping", Entity: "x", Time: 10},
		{Name: "ping", Entity: "x", Time: 40},
		{Name: "ping", Entity: "y", Time: 200},
	})
	x := res.Fluents()[FluentKey{"alive", "x", True}]
	if !reflect.DeepEqual(x, IntervalList{iv(10, 90)}) {
		t.Errorf("alive(x) = %v, want [(10,90]]", x)
	}
	if res.Fluents()[FluentKey{"alive", "y", True}] == nil {
		t.Error("alive(y) missing")
	}
}

func TestStaticFluentClippedToWindow(t *testing.T) {
	e := NewEngine(100)
	e.DefineStaticFluent(StaticFluentDef{
		Name:     "always",
		Entities: []string{"z"},
		Compute: func(ctx *Ctx, entity string) IntervalList {
			return IntervalList{iv(-1000, 1000)} // wildly outside the window
		},
	})
	res := e.Advance(300, nil)
	got := res.Fluents()[FluentKey{"always", "z", True}]
	if !reflect.DeepEqual(got, IntervalList{iv(200, 1000)}) {
		t.Errorf("clipped = %v, want [(200,1000]]", got)
	}
}

func TestStaticFluentFeedsDownstreamSimpleFluent(t *testing.T) {
	// A simple fluent triggered by the built-in start event of a static
	// fluent — definition chaining across forms.
	e := NewEngine(1000)
	e.DeclareInputFluent(InputFluent{Name: "busy", StartEvent: "begin", EndEvent: "finish"})
	e.DefineStaticFluent(StaticFluentDef{
		Name:     "echo",
		Entities: []string{"a"},
		Compute: func(ctx *Ctx, entity string) IntervalList {
			return ctx.IntervalsOf("busy", entity, True)
		},
	})
	identity := func(_ *Ctx, ev Event) []string { return []string{ev.Entity} }
	e.DefineSimpleFluent(SimpleFluentDef{
		Name: "reacted",
		Init: map[string][]TriggerRule{True: {{Event: "start:echo", Map: identity}}},
	})
	res := e.Advance(500, []Event{{Name: "begin", Entity: "a", Time: 42}})
	got := res.Fluents()[FluentKey{"reacted", "a", True}]
	if len(got) != 1 || got[0].Since != 42 {
		t.Errorf("reacted = %v, want open from 42", got)
	}
}

func TestDeclarationsRestrictSimpleFluent(t *testing.T) {
	// The paper's footnote 3: computation restricted to declared areas.
	e := NewEngine(1000)
	e.DefineSimpleFluent(boolFluent("watchlisted", "mark", "unmark"))
	e.Declare("watchlisted", []string{"area-1"})
	res := e.Advance(100, []Event{
		{Name: "mark", Entity: "area-1", Time: 10},
		{Name: "mark", Entity: "area-2", Time: 20}, // undeclared: ignored
	})
	if res.Fluents()[FluentKey{"watchlisted", "area-1", True}] == nil {
		t.Error("declared entity not computed")
	}
	if res.Fluents()[FluentKey{"watchlisted", "area-2", True}] != nil {
		t.Error("undeclared entity computed despite declaration")
	}
}

func TestDeclarationsRestrictStaticFluent(t *testing.T) {
	e := NewEngine(1000)
	e.DefineStaticFluent(StaticFluentDef{
		Name:     "covered",
		Entities: []string{"a", "b"},
		Compute: func(ctx *Ctx, entity string) IntervalList {
			return IntervalList{iv(10, 20)}
		},
	})
	e.Declare("covered", []string{"b"})
	res := e.Advance(100, nil)
	if res.Fluents()[FluentKey{"covered", "a", True}] != nil {
		t.Error("undeclared static entity computed")
	}
	if res.Fluents()[FluentKey{"covered", "b", True}] == nil {
		t.Error("declared static entity missing")
	}
}

func TestDeclareUnknownFluentIsNoOp(t *testing.T) {
	e := NewEngine(1000)
	e.Declare("nonexistent", []string{"x"})
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	res := e.Advance(100, []Event{{Name: "begin", Entity: "v", Time: 5}})
	if res.Fluents()[FluentKey{"busy", "v", True}] == nil {
		t.Error("unrelated declaration broke an undeclared fluent")
	}
}
