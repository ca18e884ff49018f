package rtec

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// compareEventTime orders events chronologically; it is a concrete
// comparator for slices.SortStableFunc so the sorts of the recognition
// hot path avoid reflection.
func compareEventTime(a, b Event) int { return cmp.Compare(a.Time, b.Time) }

// compareEvent is the total order of derived occurrences: time first,
// then every other field, so identical occurrences sit together and any
// two engines holding the same multiset list it the same way.
func compareEvent(a, b Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Entity, b.Entity); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Lon, b.Lon); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Lat, b.Lat); c != 0 {
		return c
	}
	return cmp.Compare(a.P, b.P)
}

// compareWeighted orders weighted points by time, then probability, so
// belief functions compose co-timed occurrences in one fixed order.
func compareWeighted(a, b WeightedPoint) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.P, b.P)
}

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
//
// The engine applies Map to an occurrence once and keeps the answer
// while the occurrence stays in the window, so Map must be a function
// of the occurrence, static data, and what it reads through the Ctx
// (HoldsAt, IntervalsOf, EventsNamed, EntityRuns, Run, DependOn) at
// timepoints inside the window: when any of those reads changes, the
// engine applies Map again.
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
// registered definition: an input fluent, an aggregate, a derived event
// or a fluent.
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
	// Evaluated counts fluent instances whose maximal intervals a query
	// step derived again because something they rest on changed;
	// Carried counts the instances a step held over from the one before
	// without looking at them. Their ratio is the share of the window the
	// incremental engine did not re-evaluate.
	Evaluated int
	Carried   int
	// Definitions says which rule the recognition time goes to, in
	// evaluation order. It measures this process and is not engine state:
	// Stats fills it, snapshots omit it.
	Definitions []DefinitionStat
}

// Engine is one RTEC run-time: a working memory of events within the
// window range ω, plus the registered event description (input fluents,
// aggregates, simple fluent definitions, derived event definitions).
// Definitions are evaluated in registration order; a rule may consult
// only fluents defined earlier in that order (a stratification the
// event description developer chooses, as in RTEC's dependency graph).
//
// A query step evaluates what changed, not what is in the window: every
// fluent instance's maximal intervals and every rule's answer for every
// trigger occurrence are kept from one step to the next. A step applies
// rules to the occurrences it admitted, forgets the answers of those it
// expired, applies again the rules whose Ctx reads changed, derives
// again the instances those answers name, and carries every other
// instance forward, clipped to the new window.
type Engine struct {
	window Timepoint // ω in seconds

	// The event description. Evaluation order is input fluents, then
	// aggregates, then derived events, then fluent definitions, each in
	// registration order.
	inputFluents []*definition
	aggregates   []*definition
	eventDefs    []*definition
	defs         []*definition              // simple and static fluents
	declared     map[string]map[string]bool // fluent → declared entities

	memory  timeline  // working memory, kept sorted by time
	pending []Event   // events with occurrence time after the last query time
	fresh   []Event   // admission scratch: the step's admitted events
	spare   []Event   // sortByTime's other buffer
	order   []timeKey // sortByTime's keys

	// The event index (index.go): per name, the working memory's
	// occurrences, updated by each step's expiry and admission.
	lists map[string]*eventList
	// builtins caches each fluent's built-in event names (incremental.go);
	// registering a definition empties it.
	builtins         map[string]*builtinNames
	builtinTriggered int8 // whether a rule is triggered by a built-in event: 0 unknown, 1 yes, -1 no

	// What the steps so far derived (incremental.go). None of it is in a
	// snapshot: Restore derives it again from the working memory.
	state
	lastQ Timepoint

	// theta > 0 enables probabilistic recognition of Boolean simple
	// fluents: maximal intervals are the periods where belief ≥ theta.
	theta float64

	// ctx is the evaluation context handed to rules.
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
		window: windowSeconds,
		lists:  make(map[string]*eventList),
	}
	e.ctx.engine = e
	e.resetState()
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
// five forms is set — with the wall-clock time spent evaluating it and
// the state its incremental evaluation keeps.
type definition struct {
	name      string
	input     *InputFluent
	aggregate func(*Ctx)
	event     *EventDef
	simple    *SimpleFluentDef
	static    *StaticFluentDef
	spent     time.Duration

	defState
}

// DeclareInputFluent registers a durative input fluent.
func (e *Engine) DeclareInputFluent(f InputFluent) {
	e.builtins, e.builtinTriggered = nil, 0
	e.inputFluents = append(e.inputFluents, &definition{name: f.Name, input: &f})
}

// DefineAggregate registers state a rule reads that sums over many
// entities' input fluents — such as the number of vessels stopped close
// to an area — and that the caller keeps itself. Each query step calls
// update once, after the input fluents and before any other definition:
// it brings the state up to date from the entities Ctx.Touched names,
// reading their input fluents and runs, and reports every aggregate
// value that moved with Ctx.Invalidate, so the rules that read it
// (Ctx.DependOn) are applied again.
func (e *Engine) DefineAggregate(name string, update func(ctx *Ctx)) {
	e.builtins, e.builtinTriggered = nil, 0
	e.aggregates = append(e.aggregates, &definition{name: name, aggregate: update})
}

// DefineSimpleFluent registers a simple fluent definition.
func (e *Engine) DefineSimpleFluent(def SimpleFluentDef) {
	d := &definition{name: def.Name, simple: &def}
	// Rules in a fixed order: values sorted, initiations before
	// terminations, each value's rules as registered.
	for _, init := range []bool{true, false} {
		byValue := def.Term
		if init {
			byValue = def.Init
		}
		values := make([]string, 0, len(byValue))
		for v := range byValue {
			values = append(values, v)
		}
		sort.Strings(values)
		for _, v := range values {
			for _, tr := range byValue[v] {
				d.addRule(tr, v, init)
			}
		}
	}
	e.builtins, e.builtinTriggered = nil, 0
	e.defs = append(e.defs, d)
}

// DefineEvent registers a derived event definition.
func (e *Engine) DefineEvent(def EventDef) {
	d := &definition{name: def.Name, event: &def}
	for _, tr := range def.Rules {
		d.addRule(tr, "", false)
	}
	e.builtins, e.builtinTriggered = nil, 0
	e.eventDefs = append(e.eventDefs, d)
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	st := e.stats
	for _, defs := range [4][]*definition{e.inputFluents, e.aggregates, e.eventDefs, e.defs} {
		for _, d := range defs {
			st.Definitions = append(st.Definitions, DefinitionStat{Name: d.name, Time: d.spent})
		}
	}
	return st
}

// Result is the outcome of one query step. Its slices are owned by the
// engine and valid until the next Advance.
type Result struct {
	engine *Engine

	Query Timepoint
	// Derived lists the instantaneous complex events recognized from the
	// current window contents, in chronological order.
	Derived []Event
	// Added lists the occurrences of Derived this step added.
	Added []Event
	// Changed lists the fluent instances whose maximal intervals this
	// step changed: derived again with a different outcome, cut back by
	// the window start, or gone (a key may repeat). An instance carried
	// forward whose first interval began before the window start, and so
	// now starts at it, is not in it.
	Changed []FluentKey
}

// Fluents returns the maximal intervals of every fluent instance
// (input, simple, computed) derivable from the window contents: the
// engine's map (Engine.Fluents), valid until the next Advance.
func (r Result) Fluents() map[FluentKey]IntervalList { return r.engine.Fluents() }

// Advance performs complex event recognition at query time q: events
// received since the previous step are merged into the working memory,
// events at or before q-ω are forgotten (newly arriving ones that old
// are counted as lost, exactly the paper's Figure 5 semantics), and the
// definitions are evaluated again where the window's change reaches.
func (e *Engine) Advance(q Timepoint, incoming []Event) Result {
	e.stats.QuerySteps++
	e.step++
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
	fresh = e.sortByTime(fresh)
	e.fresh = fresh
	e.startStep(q)
	e.admit(windowStart, fresh)
	e.evaluate()

	e.stats.DerivedEvents += len(e.derived)
	e.lastQ = q
	return Result{engine: e, Query: q, Derived: e.derived, Added: e.added, Changed: e.changed}
}

// sortByTime orders a batch by time, keeping arrival order among
// co-timed events (admit's tie rule). A stable sort moves the 56-byte
// events through a merge's worth of swaps, so an out-of-order batch is
// ordered as (time, position) pairs and gathered once.
func (e *Engine) sortByTime(evs []Event) []Event {
	if slices.IsSortedFunc(evs, compareEventTime) {
		return evs
	}
	keys := e.order[:0]
	for i := range evs {
		keys = append(keys, timeKey{evs[i].Time, i})
	}
	slices.SortFunc(keys, func(a, b timeKey) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		return cmp.Compare(a.i, b.i)
	})
	sorted := e.spare[:0]
	for _, k := range keys {
		sorted = append(sorted, evs[k.i])
	}
	e.order, e.spare = keys, evs[:0]
	return sorted
}

// timeKey is one event's place in sortByTime.
type timeKey struct {
	t Timepoint
	i int
}

// admit forgets the events at or before windowStart and merges the
// step's admitted events (sorted by time) into the working memory and
// the event index, noting both as the step's change. Both sides are
// sorted, so forgetting drops a prefix and admission is one merge; on
// equal timestamps retained events stay ahead of new ones, as a stable
// sort of memory followed by fresh would leave them.
func (e *Engine) admit(windowStart Timepoint, fresh []Event) {
	old := e.memory.events()
	expired := sort.Search(len(old), func(i int) bool { return old[i].Time > windowStart })
	for i := range old[:expired] {
		e.noteMemory(old[i], false)
	}
	for i := range fresh {
		e.noteMemory(fresh[i], true)
	}
	e.reindex(old[:expired], fresh)
	e.memory.expire(expired)
	e.memory.merge(fresh)
}

// HoldsFor returns the maximal intervals of a fluent instance as of the
// last query time.
func (e *Engine) HoldsFor(key FluentKey) IntervalList {
	ivs, _ := e.current(key)
	return ivs
}

// Derived returns the instantaneous complex events recognized from the
// window contents as of the last query time, in chronological order,
// owned by the engine and valid until the next Advance.
func (e *Engine) Derived() []Event { return e.derived }

// Instance returns the maximal intervals of a fluent instance as of the
// last query time and whether the instance exists (in probabilistic
// mode an instance may exist with no interval above the threshold).
func (e *Engine) Instance(key FluentKey) (IntervalList, bool) { return e.current(key) }

// HoldsAt reports whether the fluent instance held at t, as of the last
// query time.
func (e *Engine) HoldsAt(key FluentKey, t Timepoint) bool { return e.HoldsFor(key).HoldsAt(t) }

// WorkingMemorySize returns the number of events currently retained.
func (e *Engine) WorkingMemorySize() int { return len(e.memory.events()) }

// Ctx is the evaluation context passed to rules: it exposes holdsAt
// queries over already-computed fluents, the event window, and the
// current query time. Every read a rule makes through it is recorded,
// so the engine knows when to apply the rule again.
type Ctx struct {
	engine      *Engine
	Query       Timepoint
	WindowStart Timepoint

	// fluents is the engine's instance map.
	fluents map[FluentKey]IntervalList
	// cur is the rule application or static evaluation running, nil
	// outside one; reads are recorded against it.
	cur *call
}

// HoldsAt reports whether a fluent instance (computed earlier in the
// evaluation order) holds at t.
func (c *Ctx) HoldsAt(fluent, entity, value string, t Timepoint) bool {
	return c.IntervalsOf(fluent, entity, value).HoldsAt(t)
}

// IntervalsOf returns the computed maximal intervals of a fluent
// instance.
func (c *Ctx) IntervalsOf(fluent, entity, value string) IntervalList {
	key := FluentKey{Fluent: fluent, Entity: entity, Value: value}
	c.read(depKey{key, depInstance})
	ivs, _ := c.engine.current(key)
	return ivs
}

// SetComputedFluent installs externally computed maximal intervals for
// a fluent instance (RTEC's statically determined fluents): later
// definitions can consult it via HoldsAt. The intervals are clipped to
// the current window and kept until set again.
func (c *Ctx) SetComputedFluent(key FluentKey, ivs IntervalList) {
	c.engine.setInstance(key, Clip(Interval{Since: c.WindowStart, Until: Inf}, ivs))
}

// EventsNamed returns the window occurrences of the named event in
// chronological order, including derived events and the built-in
// "start:<fluent>" and "end:<fluent>" events of the fluents computed so
// far. The slice is owned by the engine and valid for the current query
// step.
func (c *Ctx) EventsNamed(name string) []Event {
	e := c.engine
	if fluent, ok := strings.CutPrefix(name, "start:"); ok {
		c.read(depKey{FluentKey{Fluent: name}, depBuiltin})
		return e.markerList(name, fluent, false)
	}
	if fluent, ok := strings.CutPrefix(name, "end:"); ok {
		c.read(depKey{FluentKey{Fluent: name}, depBuiltin})
		return e.markerList(name, fluent, true)
	}
	c.read(depKey{FluentKey{Fluent: name}, depList})
	return e.eventsNamed(name)
}

// EntityRuns calls visit once per entity with working-memory occurrences
// of the named event, in entity order, with that entity's occurrences in
// chronological order (co-timed ones in working-memory order). run is
// owned by the engine and valid for the current query step.
func (c *Ctx) EntityRuns(name string, visit func(entity string, run []Event)) {
	c.read(depKey{FluentKey{Fluent: name}, depList})
	for _, r := range c.engine.lists[name].entityRuns() {
		visit(r.entity, r.events())
	}
}

// Run returns one entity's working-memory occurrences of the named
// event in chronological order, owned by the engine and valid for the
// current query step.
func (c *Ctx) Run(name, entity string) []Event {
	c.read(depKey{FluentKey{Fluent: name, Entity: entity}, depRun})
	return c.engine.run(name, entity)
}

// Touched returns, in entity order, the entities that had an occurrence
// of any of the named input events admitted into or expired from the
// working memory in the current step — the entities whose input fluents
// the step derived again. Aggregates use it to find what to update.
func (c *Ctx) Touched(names ...string) []string {
	var out []string
	for _, name := range names {
		if d := c.engine.deltas[name]; d != nil {
			out = mergeSorted(out, d.touched.list())
		}
	}
	return out
}

// mergeSorted returns the sorted union of two sorted string lists
// without duplicates; it reuses neither.
func mergeSorted(a, b []string) []string {
	if len(a) == 0 {
		return slices.Clone(b)
	}
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return out
}

// DependOn records that the running rule read the aggregate value named
// key (see DefineAggregate) at time t.
func (c *Ctx) DependOn(key FluentKey, t Timepoint) { c.readAt(depKey{key, depAggregate}, t, t+1) }

// Invalidate reports that the aggregate value named key changed in this
// step at the times in [from, to): every rule application that read it
// at one of them is made again.
func (c *Ctx) Invalidate(key FluentKey, from, to Timepoint) {
	c.engine.markChangedAt(depKey{key, depAggregate}, span{from, to})
}

// read records one dependency of the running evaluation, at any time.
func (c *Ctx) read(k depKey) { c.readAt(k, -Inf, Inf) }

// readAt records one dependency of the running evaluation, over the
// times [from, to).
func (c *Ctx) readAt(k depKey, from, to Timepoint) {
	if c.cur == nil {
		return
	}
	for i := range c.cur.deps {
		if d := &c.cur.deps[i]; d.key == k {
			d.from, d.to = min(d.from, from), max(d.to, to)
			return
		}
	}
	c.cur.deps = append(c.cur.deps, depRead{k, span{from, to}})
}

// evalInputFluent derives again the intervals of every entity whose
// start or end events the step admitted or expired.
func (e *Engine) evalInputFluent(f *InputFluent) {
	for _, entity := range e.ctx.Touched(f.StartEvent, f.EndEvent) {
		e.stats.Evaluated++
		e.evaluated++
		key := FluentKey{Fluent: f.Name, Entity: entity, Value: True}
		starts, ends := e.run(f.StartEvent, entity), e.run(f.EndEvent, entity)
		if len(starts) == 0 && len(ends) == 0 {
			e.deleteInstance(key)
			continue
		}
		e.setInstance(key, inputIntervals(starts, ends, e.ctx.WindowStart))
	}
}

// inputIntervals pairs one entity's start and end events into maximal
// intervals. An end without a preceding start yields an interval open on
// the left at the window start (the episode began before the working
// memory); a start without an end yields an ongoing interval. Events
// are walked side by side in time order, a start ahead of an end at the
// same timepoint.
func inputIntervals(s, e []Event, windowStart Timepoint) IntervalList {
	ivs := make([]Interval, 0, len(e)+1)
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
			since = windowStart // began before the window
		}
		ivs = append(ivs, Interval{Since: since, Until: e[0].Time})
		open, e = false, e[1:]
	}
	if open {
		ivs = append(ivs, Interval{Since: since, Until: Inf})
	}
	return slices.Clip(normalize(ivs))
}
