package rtec

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// compareEventTime orders events chronologically; it is a concrete
// comparator for slices.SortStableFunc so the sorts of the recognition
// hot path avoid reflection.
func compareEventTime(a, b Event) int { return cmp.Compare(a.Time, b.Time) }

// compareWeightedTime orders weighted points chronologically.
func compareWeightedTime(a, b WeightedPoint) int { return cmp.Compare(a.Time, b.Time) }

// Event is one instantaneous event occurrence: an input movement event
// from trajectory detection (turn, speedChange, gap, or the start/end
// markers of durative MEs), a built-in start/end event of a fluent, or
// a derived (recognized) instantaneous complex event. Entity is the
// subject (a vessel MMSI or an area ID); Lon/Lat carry the vessel
// coordinates that accompany every critical ME (the paper's coord
// fluent).
type Event struct {
	Name   string
	Entity string
	Time   Timepoint
	Lon    float64
	Lat    float64
	// P is the detection confidence of the event in (0, 1]; zero means
	// certain (1), so crisp callers can ignore the field. It is only
	// consulted in probabilistic mode.
	P float64
}

// certainty normalizes the confidence field.
func certainty(ev Event) float64 {
	if ev.P <= 0 || ev.P > 1 {
		return 1
	}
	return ev.P
}

// String renders the event as happensAt(name(entity), t).
func (e Event) String() string {
	return fmt.Sprintf("happensAt(%s(%s), %d)", e.Name, e.Entity, e.Time)
}

// FluentKey identifies one fluent instance with a value: F(Entity)=Value.
type FluentKey struct {
	Fluent string
	Entity string
	Value  string
}

// String renders the key as fluent(entity)=value.
func (k FluentKey) String() string {
	return fmt.Sprintf("%s(%s)=%s", k.Fluent, k.Entity, k.Value)
}

// True is the conventional value of Boolean fluents.
const True = "true"

// TriggerRule relates an event pattern to the fluent instances it
// initiates or terminates (or, for event definitions, the derived
// events it produces). When an event named Event occurs at T, Map
// returns the entities of the defined fluent/event affected at T —
// empty when the rule's other conditions do not hold. Map receives the
// evaluation context for holdsAt queries and atemporal predicates over
// static data.
type TriggerRule struct {
	Event string
	Map   func(ctx *Ctx, ev Event) []string
}

// SimpleFluentDef defines a simple fluent: per value, the initiatedAt
// and terminatedAt rules. Maximal intervals follow the law of inertia,
// with initiation of a different value breaking the current one
// (the paper's rules (1) and (2)).
type SimpleFluentDef struct {
	Name string
	Init map[string][]TriggerRule // value → initiation rules
	Term map[string][]TriggerRule // value → termination rules
}

// EventDef defines a derived instantaneous complex event by happensAt
// rules (e.g. illegalShipping, rule (5) of the paper).
type EventDef struct {
	Name  string
	Rules []TriggerRule
}

// InputFluent declares a durative input fluent whose maximal intervals
// are delivered as paired start/end events in the ME stream (e.g. the
// tracker's stopStart/stopEnd demarcating stopped(Vessel)=true).
type InputFluent struct {
	Name       string
	StartEvent string
	EndEvent   string
}

// DefinitionStat is the cumulative wall-clock evaluation time of one
// registered definition: an input fluent, a derived event or a fluent.
type DefinitionStat struct {
	Name string
	Time time.Duration
}

// Stats counts engine activity.
type Stats struct {
	EventsIn      int // events admitted into the working memory
	EventsLate    int // events discarded for arriving after their window
	QuerySteps    int // Advance calls
	DerivedEvents int // instantaneous CE occurrences recognized
	// Definitions says which rule the recognition time goes to, in
	// evaluation order. It measures this process and is not engine state:
	// Stats fills it, snapshots omit it.
	Definitions []DefinitionStat
}

// Engine is one RTEC run-time: a working memory of events within the
// window range ω, plus the registered event description (input fluents,
// simple fluent definitions, derived event definitions). Definitions
// are evaluated in registration order; a rule may consult only fluents
// defined earlier in that order (a stratification the event description
// developer chooses, as in RTEC's dependency graph).
type Engine struct {
	window Timepoint // ω in seconds

	// The event description. Evaluation order is input fluents, then
	// derived events, then fluent definitions, each in registration order.
	inputFluents []definition
	eventDefs    []definition
	defs         []definition               // simple and static fluents
	declared     map[string]map[string]bool // fluent → declared entities

	memory  timeline // working memory, kept sorted by time
	pending []Event  // events with occurrence time after the last query time
	fresh   []Event  // admission scratch: the step's admitted events

	// The event index (index.go): per name, the working memory's
	// occurrences, updated by each step's expiry and admission.
	lists map[string]*eventList

	fluents map[FluentKey]IntervalList // all computed at the last query time
	beliefs map[FluentKey][]ProbStep   // belief functions (probabilistic mode)
	lastQ   Timepoint

	// theta > 0 enables probabilistic recognition of Boolean simple
	// fluents: maximal intervals are the periods where belief ≥ theta.
	theta float64

	// ctx is the evaluation context, reused so the index keeps its
	// storage from one query step to the next.
	ctx Ctx

	stats Stats
}

// NewEngine returns an engine with window range ω (seconds).
// It panics for a non-positive window.
func NewEngine(windowSeconds Timepoint) *Engine {
	if windowSeconds <= 0 {
		panic("rtec: window must be positive")
	}
	e := &Engine{
		window:  windowSeconds,
		fluents: make(map[FluentKey]IntervalList),
		lists:   make(map[string]*eventList),
	}
	e.ctx = Ctx{
		engine:    e,
		byName:    make(map[string]*stepList),
		instances: make(map[fluentValue]*instanceTable),
	}
	return e
}

// SetProbabilistic enables Prob-EC evaluation of Boolean simple fluents
// (paper §7's uncertainty direction): event confidences evolve a belief
// function under probabilistic inertia, and a fluent's maximal
// intervals are the periods where belief is at least theta. Fluents
// with non-Boolean values and input fluents remain crisp. Pass 0 to
// return to crisp recognition.
func (e *Engine) SetProbabilistic(theta float64) { e.theta = theta }

// BeliefOf returns the belief step function of a Boolean simple fluent
// instance as of the last query time (probabilistic mode only).
func (e *Engine) BeliefOf(key FluentKey) []ProbStep { return e.beliefs[key] }

// definition is one entry of the event description — exactly one of the
// four forms is set — with the wall-clock time spent evaluating it.
type definition struct {
	name   string
	input  *InputFluent
	event  *EventDef
	simple *SimpleFluentDef
	static *StaticFluentDef
	spent  time.Duration
}

// DeclareInputFluent registers a durative input fluent.
func (e *Engine) DeclareInputFluent(f InputFluent) {
	e.inputFluents = append(e.inputFluents, definition{name: f.Name, input: &f})
}

// DefineSimpleFluent registers a simple fluent definition.
func (e *Engine) DefineSimpleFluent(def SimpleFluentDef) {
	e.defs = append(e.defs, definition{name: def.Name, simple: &def})
}

// DefineEvent registers a derived event definition.
func (e *Engine) DefineEvent(def EventDef) {
	e.eventDefs = append(e.eventDefs, definition{name: def.Name, event: &def})
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	st := e.stats
	for _, defs := range [3][]definition{e.inputFluents, e.eventDefs, e.defs} {
		for i := range defs {
			st.Definitions = append(st.Definitions, DefinitionStat{Name: defs[i].name, Time: defs[i].spent})
		}
	}
	return st
}

// Result is the outcome of one query step.
type Result struct {
	Query Timepoint
	// Derived lists the instantaneous complex events recognized from the
	// current window contents, in chronological order.
	Derived []Event
	// Fluents holds the maximal intervals of every fluent instance
	// (input, simple, computed) derivable from the window contents.
	Fluents map[FluentKey]IntervalList
}

// Advance performs complex event recognition at query time q: events
// received since the previous step are merged into the working memory,
// events at or before q-ω are forgotten (newly arriving ones that old
// are counted as lost, exactly the paper's Figure 5 semantics), and all
// definitions are re-evaluated over the window contents.
func (e *Engine) Advance(q Timepoint, incoming []Event) Result {
	e.stats.QuerySteps++
	windowStart := q - e.window

	// Admit pending events whose occurrence time is now within reach.
	carry := e.pending
	e.pending = nil
	fresh := e.fresh[:0]
	for _, batch := range [2][]Event{carry, incoming} {
		for _, ev := range batch {
			switch {
			case ev.Time > q:
				e.pending = append(e.pending, ev)
			case ev.Time <= windowStart:
				e.stats.EventsLate++
			default:
				fresh = append(fresh, ev)
				e.stats.EventsIn++
			}
		}
	}
	slices.SortStableFunc(fresh, compareEventTime)
	e.fresh = fresh
	e.admit(windowStart, fresh)

	ctx := &e.ctx
	ctx.reset()
	ctx.Query, ctx.WindowStart = q, windowStart
	// The result maps are handed to the caller, so each step gets its own.
	ctx.fluents = make(map[FluentKey]IntervalList, len(e.fluents))
	ctx.beliefs = make(map[FluentKey][]ProbStep, len(e.beliefs))

	mark := time.Now()
	lap := func(d *definition) {
		now := time.Now()
		d.spent += now.Sub(mark)
		mark = now
	}
	// 1. Input durative fluents from their start/end marker events.
	for i := range e.inputFluents {
		ctx.computeInputFluent(e.inputFluents[i].input)
		lap(&e.inputFluents[i])
	}
	// 2. Definitions in registration order. Derived events from event
	// definitions become visible to later definitions.
	var derived []Event
	for i := range e.eventDefs {
		occ := ctx.evalEventDef(e.eventDefs[i].event)
		derived = append(derived, occ...)
		for _, ev := range occ {
			ctx.list(ev.Name).add(ev)
		}
		lap(&e.eventDefs[i])
	}
	for i := range e.defs {
		if def := &e.defs[i]; def.simple != nil {
			ctx.evalSimpleFluent(def.simple)
		} else {
			ctx.evalStaticFluent(def.static)
		}
		lap(&e.defs[i])
	}

	slices.SortStableFunc(derived, compareEventTime)
	e.stats.DerivedEvents += len(derived)
	e.fluents = ctx.fluents
	e.beliefs = ctx.beliefs
	e.lastQ = q

	return Result{Query: q, Derived: derived, Fluents: ctx.fluents}
}

// admit forgets the events at or before windowStart and merges the
// step's admitted events (sorted by time) into the working memory and
// the event index. Both sides are sorted, so forgetting drops a prefix
// and admission is one merge; on equal timestamps retained events stay
// ahead of new ones, as a stable sort of memory followed by fresh would
// leave them.
func (e *Engine) admit(windowStart Timepoint, fresh []Event) {
	old := e.memory.events()
	expired := sort.Search(len(old), func(i int) bool { return old[i].Time > windowStart })
	e.reindex(old[:expired], fresh)
	e.memory.expire(expired)
	e.memory.merge(fresh)
}

// HoldsFor returns the maximal intervals of a fluent instance as of the
// last query time.
func (e *Engine) HoldsFor(key FluentKey) IntervalList { return e.fluents[key] }

// HoldsAt reports whether the fluent instance held at t, as of the last
// query time.
func (e *Engine) HoldsAt(key FluentKey, t Timepoint) bool { return e.fluents[key].HoldsAt(t) }

// WorkingMemorySize returns the number of events currently retained.
func (e *Engine) WorkingMemorySize() int { return len(e.memory.events()) }

// Ctx is the evaluation context passed to rules: it exposes holdsAt
// queries over already-computed fluents, the event window, and the
// current query time.
type Ctx struct {
	engine      *Engine
	Query       Timepoint
	WindowStart Timepoint

	fluents map[FluentKey]IntervalList
	beliefs map[FluentKey][]ProbStep
	// The step index (index.go).
	byName    map[string]*stepList
	instances map[fluentValue]*instanceTable
}

// HoldsAt reports whether a fluent instance (computed earlier in the
// evaluation order) holds at t.
func (c *Ctx) HoldsAt(fluent, entity, value string, t Timepoint) bool {
	return c.fluents[FluentKey{Fluent: fluent, Entity: entity, Value: value}].HoldsAt(t)
}

// IntervalsOf returns the computed maximal intervals of a fluent
// instance.
func (c *Ctx) IntervalsOf(fluent, entity, value string) IntervalList {
	return c.fluents[FluentKey{Fluent: fluent, Entity: entity, Value: value}]
}

// SetComputedFluent installs externally computed maximal intervals for
// a fluent instance (RTEC's statically determined fluents): later
// definitions can consult it via HoldsAt. The intervals are clipped to
// the current window.
func (c *Ctx) SetComputedFluent(key FluentKey, ivs IntervalList) {
	c.setFluent(key, Clip(Interval{Since: c.WindowStart, Until: Inf}, ivs))
}

// computeInputFluent converts paired start/end events into maximal
// intervals per entity. An end without a preceding start yields an
// interval open on the left at the window start (the episode began
// before the working memory); a start without an end yields an ongoing
// interval. It walks the two events' entity runs side by side, so
// entities come out in sorted order and each entity's occurrences in
// time order, a start ahead of an end at the same timepoint.
func (c *Ctx) computeInputFluent(f *InputFluent) {
	starts := c.engine.lists[f.StartEvent].entityRuns()
	ends := c.engine.lists[f.EndEvent].entityRuns()
	// One allocation holds every instance's intervals: each end event
	// closes one, each entity leaves at most one open.
	arena := make([]Interval, 0, len(starts)+len(c.engine.lists[f.EndEvent].all()))
	tab := c.table(f.Name, True)
	for len(starts) > 0 || len(ends) > 0 {
		var entity string
		switch {
		case len(ends) == 0:
			entity = starts[0].entity
		case len(starts) == 0:
			entity = ends[0].entity
		default:
			entity = min(starts[0].entity, ends[0].entity)
		}
		var s, e []Event
		if len(starts) > 0 && starts[0].entity == entity {
			s, starts = starts[0].events(), starts[1:]
		}
		if len(ends) > 0 && ends[0].entity == entity {
			e, ends = ends[0].events(), ends[1:]
		}
		first := len(arena)
		open, since := false, Timepoint(0)
		for len(s) > 0 || len(e) > 0 {
			if len(s) > 0 && (len(e) == 0 || s[0].Time <= e[0].Time) {
				if !open {
					open, since = true, s[0].Time
				}
				s = s[1:]
				continue
			}
			if !open {
				since = c.WindowStart // began before the window
			}
			arena = append(arena, Interval{Since: since, Until: e[0].Time})
			open, e = false, e[1:]
		}
		if open {
			arena = append(arena, Interval{Since: since, Until: Inf})
		}
		ivs := slices.Clip(normalize(arena[first:]))
		arena = arena[:first+len(ivs)]
		c.fluents[FluentKey{Fluent: f.Name, Entity: entity, Value: True}] = ivs
		tab.set(entity, ivs)
	}
}

// evalEventDef evaluates a derived event definition over the window.
func (c *Ctx) evalEventDef(def *EventDef) []Event {
	var out []Event
	for _, rule := range def.Rules {
		for _, ev := range c.EventsNamed(rule.Event) {
			for _, entity := range rule.Map(c, ev) {
				out = append(out, Event{
					Name: def.Name, Entity: entity, Time: ev.Time,
					Lon: ev.Lon, Lat: ev.Lat,
				})
			}
		}
	}
	slices.SortStableFunc(out, compareEventTime)
	return out
}

// evalSimpleFluent computes the maximal intervals of a simple fluent
// for every entity and value, implementing holdsFor with the broken
// semantics of the paper's rules (1) and (2).
func (c *Ctx) evalSimpleFluent(def *SimpleFluentDef) {
	type points struct {
		inits map[string][]WeightedPoint // value → initiation points
		terms map[string][]WeightedPoint // value → termination points
	}
	byEntity := make(map[string]*points)
	get := func(entity string) *points {
		p := byEntity[entity]
		if p == nil {
			p = &points{
				inits: make(map[string][]WeightedPoint),
				terms: make(map[string][]WeightedPoint),
			}
			byEntity[entity] = p
		}
		return p
	}
	for value, rules := range def.Init {
		for _, rule := range rules {
			for _, ev := range c.EventsNamed(rule.Event) {
				for _, entity := range rule.Map(c, ev) {
					if !c.engine.declaredOK(def.Name, entity) {
						continue
					}
					p := get(entity)
					p.inits[value] = append(p.inits[value], WeightedPoint{Time: ev.Time, P: certainty(ev)})
				}
			}
		}
	}
	for value, rules := range def.Term {
		for _, rule := range rules {
			for _, ev := range c.EventsNamed(rule.Event) {
				for _, entity := range rule.Map(c, ev) {
					if !c.engine.declaredOK(def.Name, entity) {
						continue
					}
					p := get(entity)
					p.terms[value] = append(p.terms[value], WeightedPoint{Time: ev.Time, P: certainty(ev)})
				}
			}
		}
	}

	entities := make([]string, 0, len(byEntity))
	for entity := range byEntity {
		entities = append(entities, entity)
	}
	sort.Strings(entities)

	for _, entity := range entities {
		p := byEntity[entity]
		// Probabilistic recognition applies to Boolean fluents: a single
		// True value with init/term rules (Prob-EC's setting). Fluents
		// with other values stay crisp.
		if c.engine.theta > 0 && len(p.inits) == 1 && p.inits[True] != nil {
			steps := EvolveProbability(p.inits[True], p.terms[True], 0)
			key := FluentKey{Fluent: def.Name, Entity: entity, Value: True}
			c.beliefs[key] = steps
			c.setFluent(key, ThresholdIntervals(steps, c.engine.theta))
			continue
		}
		for value, inits := range p.inits {
			// Break points for F=V: terminations of V plus initiations of
			// any other value (rule (2)).
			breaks := append([]WeightedPoint(nil), p.terms[value]...)
			for other, oInits := range p.inits {
				if other != value {
					breaks = append(breaks, oInits...)
				}
			}
			slices.SortFunc(breaks, compareWeightedTime)
			slices.SortFunc(inits, compareWeightedTime)

			var ivs []Interval
			for _, ts := range inits {
				// First break strictly after ts.
				i := sort.Search(len(breaks), func(i int) bool { return breaks[i].Time > ts.Time })
				until := Inf
				if i < len(breaks) {
					until = breaks[i].Time
				}
				ivs = append(ivs, Interval{Since: ts.Time, Until: until})
			}
			c.setFluent(FluentKey{Fluent: def.Name, Entity: entity, Value: value}, Normalize(ivs))
		}
	}
}
