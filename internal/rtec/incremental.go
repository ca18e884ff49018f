package rtec

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"
)

// Incremental evaluation. The engine keeps, from one query step to the
// next, every fluent instance's maximal intervals, every derived
// occurrence, and every rule's answer for every trigger occurrence in
// the window (a call), with the Ctx reads that answer rests on. A step
//
//   - notes the occurrences it admitted into and expired from the working
//     memory, per name (the step's deltas), and which readers they reach;
//   - drops the intervals the new window start has passed (clipAll);
//   - derives again the input fluents of the entities whose start or end
//     events moved, then runs the aggregates;
//   - per definition, forgets the answers of expired triggers, applies the
//     rules again whose reads changed (the definition's stale calls), and
//     applies them to admitted triggers; an answer names output entities,
//     which are the instances the definition derives again.
//
// Every other instance is carried forward untouched. None of this is in
// a snapshot: Restore rebuilds it with one rescan of the working memory,
// which is also what a fresh engine's first step amounts to.

// state is the derived part of an Engine.
type state struct {
	step uint64 // the query step running or last run; stamps marks

	fluents map[FluentKey]IntervalList // every instance (current clips a first interval's start)
	beliefs map[FluentKey][]ProbStep   // belief functions (probabilistic mode)
	// ends files every instance under the end of its first interval: the
	// window start passing it is when the interval leaves the window.
	ends Expiry[FluentKey]
	// readers maps each recorded Ctx read to the calls that made it;
	// readerKinds counts its keys per kind.
	readers     map[depKey]*readerSet
	readerKinds [numDepKinds]int
	// derived holds the derived occurrences of the window in compareEvent
	// order, all names together and per name.
	derived   []Event
	derivedBy map[string][]Event
	markers   map[string]*markerList // built-in event lists, per name

	// The step's change.
	deltas    map[string]*delta // per name: occurrences added and removed
	added     []Event           // derived occurrences added
	changed   []FluentKey       // instances changed
	evaluated int               // instances derived this step
}

// defState is what one definition keeps between steps.
type defState struct {
	rules []*rule
	// stale lists the calls whose reads changed, to apply again when the
	// definition is next evaluated.
	stale []*call
	// ents holds the output entities: for a simple fluent the calls naming
	// each, for a static one its Compute evaluation.
	ents  map[string]*grounding
	dirty []string // simple fluents: entities to derive again this step

	// Static fluents: the groundings and the evaluation that chose them.
	grounded   bool
	entities   []string
	groundCall *call
}

// rule is one trigger rule of a definition, with its answers for the
// trigger occurrences in the window. Occurrences answered with nothing,
// by reading nothing, are not kept: their answer cannot change.
type rule struct {
	TriggerRule
	idx   int
	value string // simple fluents: the value initiated or terminated
	init  bool
	calls map[Event]*call
}

func (d *definition) addRule(tr TriggerRule, value string, init bool) {
	d.rules = append(d.rules, &rule{TriggerRule: tr, idx: len(d.rules), value: value, init: init, calls: make(map[Event]*call)})
}

// call is one evaluation the engine keeps: a rule applied to a trigger
// occurrence (n identical occurrences share it), or a static fluent's
// Compute for one entity or its EntitiesOf.
type call struct {
	def    *definition
	rule   *rule // nil for static fluent evaluations
	ev     Event
	entity string // static fluents: the entity Compute ran for
	n      int
	out    []string  // the rule's answer, undeclared entities dropped
	deps   []depRead // the Ctx reads the answer rests on
	queued bool      // on its definition's stale list
	dead   bool
}

// grounding is one output entity of a simple or static fluent.
type grounding struct {
	calls  []*call  // simple: the calls whose answer names it, once per mention
	values []string // simple: the values it has instances of
	eval   *call    // static: the Compute evaluation
	dirty  uint64   // the step that last queued it
}

// depKind says what a Ctx read was of.
type depKind uint8

const (
	depInstance  depKind = iota // a fluent instance
	depList                     // every occurrence of a name
	depRun                      // one entity's occurrences of a name
	depBuiltin                  // every occurrence of a built-in event
	depAggregate                // an aggregate value
	numDepKinds
)

type depKey struct {
	key  FluentKey
	kind depKind
}

// span is the half-open range of times [from, to) a read looked at.
type span struct{ from, to Timepoint }

// depRead is one Ctx read of a call and the times it looked at.
type depRead struct {
	key depKey
	span
}

type readerSet struct {
	calls  map[*call]span
	marked uint64 // the step whose change already queued all of them
}

// touchedSet is the entities a name's occurrences admitted into or
// expired from the working memory belong to, sorted and deduplicated on
// the first ask.
type touchedSet struct {
	entities []string
	sorted   bool
}

func (ts *touchedSet) list() []string {
	if !ts.sorted {
		slices.Sort(ts.entities)
		ts.entities, ts.sorted = slices.Compact(ts.entities), true
	}
	return ts.entities
}

// delta is one name's change in a step, and the entities of the
// working-memory occurrences among it.
type delta struct {
	added, removed []Event
	touched        touchedSet
}

// remove records an occurrence leaving; one the step itself added (an
// instance changed twice in a step) just comes out again.
func (d *delta) remove(ev Event) {
	if i := slices.Index(d.added, ev); i >= 0 {
		d.added = slices.Delete(d.added, i, i+1)
		return
	}
	d.removed = append(d.removed, ev)
}

type markerList struct {
	step    uint64
	version int
	evs     []Event
}

// resetState drops everything derived, keeping the step counter.
func (e *Engine) resetState() {
	e.state = state{
		step:      e.step,
		fluents:   make(map[FluentKey]IntervalList),
		beliefs:   make(map[FluentKey][]ProbStep),
		readers:   make(map[depKey]*readerSet),
		derivedBy: make(map[string][]Event),
		markers:   make(map[string]*markerList),
		deltas:    make(map[string]*delta),
	}
	e.ctx.fluents = e.fluents
	for _, defs := range [4][]*definition{e.inputFluents, e.aggregates, e.eventDefs, e.defs} {
		for _, d := range defs {
			for _, r := range d.rules {
				r.calls = make(map[Event]*call)
			}
			d.defState = defState{rules: d.rules}
		}
	}
}

// rescan derives everything again from the working memory at the last
// query time, as if the whole memory had just been admitted. It is
// idempotent.
func (e *Engine) rescan() {
	e.resetState()
	e.step++
	e.startStep(e.lastQ)
	for _, ev := range e.memory.events() {
		e.noteMemory(ev, true)
	}
	e.evaluate()
}

// startStep empties the step's change and sets the query time.
func (e *Engine) startStep(q Timepoint) {
	e.ctx.Query, e.ctx.WindowStart = q, q-e.window
	for name, d := range e.deltas {
		if len(d.added) == 0 && len(d.removed) == 0 {
			delete(e.deltas, name)
			continue
		}
		clear(d.added)
		clear(d.removed)
		d.added, d.removed = d.added[:0], d.removed[:0]
		d.touched.entities, d.touched.sorted = d.touched.entities[:0], false
	}
	clear(e.added)
	clear(e.changed)
	e.added, e.changed, e.evaluated = e.added[:0], e.changed[:0], 0
}

// delta returns the step's change of a name.
func (e *Engine) delta(name string) *delta {
	d := e.deltas[name]
	if d == nil {
		d = &delta{}
		e.deltas[name] = d
	}
	return d
}

// noteMemory records one occurrence admitted into or expired from the
// working memory.
func (e *Engine) noteMemory(ev Event, added bool) {
	d := e.delta(ev.Name)
	if added {
		d.added = append(d.added, ev)
	} else {
		d.removed = append(d.removed, ev)
	}
	d.touched.entities, d.touched.sorted = append(d.touched.entities, ev.Entity), false
	e.markChanged(depKey{FluentKey{Fluent: ev.Name}, depList})
	e.markChanged(depKey{FluentKey{Fluent: ev.Name}, depBuiltin}) // a built-in event's list holds the memory's occurrences too
	e.markChanged(depKey{FluentKey{Fluent: ev.Name, Entity: ev.Entity}, depRun})
}

// evaluate runs the step's definitions in evaluation order.
func (e *Engine) evaluate() {
	e.clipAll()
	mark := time.Now()
	lap := func(d *definition) {
		now := time.Now()
		d.spent += now.Sub(mark)
		mark = now
	}
	for _, d := range e.inputFluents {
		e.evalInputFluent(d.input)
		lap(d)
	}
	for _, d := range e.aggregates {
		d.aggregate(&e.ctx)
		lap(d)
	}
	for _, d := range e.eventDefs {
		e.evalRules(d)
		lap(d)
	}
	for _, d := range e.defs {
		if d.simple != nil {
			e.evalSimpleFluent(d)
		} else {
			e.evalStaticFluent(d)
		}
		lap(d)
	}
	e.stats.Carried += max(0, len(e.fluents)-e.evaluated)
}

// clipAll cuts the instances back to the new window. Intervals the
// window start has passed go — the first interval of an instance is
// filed under its end, so only the instances losing one are visited.
// The first interval left may have begun before the window start (an
// input fluent's episode whose start left the working memory): its
// start moves to the window start, which reads do (current) unless a
// rule is triggered by or reads built-in events, whose occurrences at
// the window start then move every step.
func (e *Engine) clipAll() {
	w := e.ctx.WindowStart
	e.ends.Expire(w, e.dropEnded)
	if !e.builtinTriggers() && e.readerKinds[depBuiltin] == 0 {
		return
	}
	for key, ivs := range e.fluents {
		if len(ivs) > 0 && ivs[0].Since < w {
			var old IntervalList
			if key.Value == True {
				old = slices.Clone(ivs)
			}
			ivs[0].Since = w
			e.instanceChanged(key, old, ivs)
		}
	}
}

// dropEnded removes the intervals of an instance that ended at or
// before the window start. It works in place — a Result is valid until
// the next step.
func (e *Engine) dropEnded(key FluentKey) {
	w := e.ctx.WindowStart
	ivs := e.fluents[key]
	i := 0
	for i < len(ivs) && ivs[i].Until <= w {
		i++
	}
	switch {
	case i == 0:
		return // set again since it was filed
	case i == len(ivs):
		e.deleteInstance(key)
		return
	}
	old := slices.Clone(ivs)
	ivs = ivs[i:]
	ivs[0].Since = max(ivs[0].Since, w)
	e.fluents[key] = ivs
	if !ivs[0].Open() {
		e.ends.Push(ivs[0].Until, key)
	}
	e.changed = append(e.changed, key)
	e.instanceChanged(key, old, ivs)
}

// current returns an instance's intervals as of the last step's window:
// a first interval that began before the window start starts there.
func (e *Engine) current(key FluentKey) (IntervalList, bool) {
	ivs, ok := e.fluents[key]
	if len(ivs) > 0 && ivs[0].Since < e.ctx.WindowStart {
		ivs[0].Since = e.ctx.WindowStart
	}
	return ivs, ok
}

// Fluents returns the maximal intervals of every fluent instance as of
// the last query time. The map is the engine's, valid until the next
// Advance; building it is a pass over every instance, for inspection
// and tests, not for a query step.
func (e *Engine) Fluents() map[FluentKey]IntervalList {
	for key := range e.fluents {
		e.current(key)
	}
	return e.fluents
}

// markChanged queues every call that read k for evaluation again.
func (e *Engine) markChanged(k depKey) {
	if e.readerKinds[k.kind] == 0 {
		return
	}
	rs := e.readers[k]
	if rs == nil || rs.marked == e.step {
		return
	}
	rs.marked = e.step
	for c := range rs.calls {
		e.queue(c)
	}
}

// markChangedAt queues the calls that read k at a time in the span.
func (e *Engine) markChangedAt(k depKey, at span) {
	if e.readerKinds[k.kind] == 0 {
		return
	}
	rs := e.readers[k]
	if rs == nil || rs.marked == e.step {
		return
	}
	for c, read := range rs.calls {
		if read.from < at.to && at.from < read.to {
			e.queue(c)
		}
	}
}

// queue puts a call on its definition's stale list.
func (e *Engine) queue(c *call) {
	if !c.queued {
		c.queued = true
		c.def.stale = append(c.def.stale, c)
	}
}

func (e *Engine) register(c *call) {
	for _, d := range c.deps {
		rs := e.readers[d.key]
		if rs == nil {
			rs = &readerSet{calls: make(map[*call]span)}
			e.readers[d.key] = rs
			e.readerKinds[d.key.kind]++
		}
		rs.calls[c] = d.span
	}
}

func (e *Engine) unregister(c *call) {
	for _, d := range c.deps {
		if rs := e.readers[d.key]; rs != nil {
			if delete(rs.calls, c); len(rs.calls) == 0 {
				delete(e.readers, d.key)
				e.readerKinds[d.key.kind]--
			}
		}
	}
	c.deps = c.deps[:0]
}

// evalCall runs fn as the evaluation c, recording its reads afresh.
func (e *Engine) evalCall(c *call, fn func(ctx *Ctx)) {
	e.unregister(c)
	e.ctx.cur = c
	fn(&e.ctx)
	e.ctx.cur = nil
	e.register(c)
}

// apply applies the call's rule to its occurrence.
func (e *Engine) apply(c *call) {
	var out []string
	e.evalCall(c, func(ctx *Ctx) { out = c.rule.Map(ctx, c.ev) })
	c.out = c.out[:0]
	for _, entity := range out {
		if c.def.simple == nil || e.declaredOK(c.def.name, entity) {
			c.out = append(c.out, entity)
		}
	}
}

// compareCalls orders a definition's calls for evaluation.
func compareCalls(a, b *call) int {
	if a.rule != nil && b.rule != nil {
		if c := cmp.Compare(a.rule.idx, b.rule.idx); c != 0 {
			return c
		}
		return compareEvent(a.ev, b.ev)
	}
	return cmp.Compare(a.entity, b.entity)
}

// evalRules brings a derived event or simple fluent definition's calls
// up to date with the step: answers of expired triggers are forgotten,
// stale calls applied again, admitted triggers answered.
func (e *Engine) evalRules(d *definition) {
	for _, r := range d.rules {
		if dl := e.deltas[r.Event]; dl != nil {
			for _, ev := range dl.removed {
				e.dropOccurrence(d, r, ev)
			}
		}
	}
	if stale := d.stale; len(stale) > 0 {
		d.stale = nil
		slices.SortFunc(stale, compareCalls)
		for _, c := range stale {
			c.queued = false
			if !c.dead {
				e.reapply(d, c)
			}
		}
	}
	for _, r := range d.rules {
		if dl := e.deltas[r.Event]; dl != nil {
			for _, ev := range dl.added {
				e.addOccurrence(d, r, ev)
			}
		}
	}
}

func (e *Engine) addOccurrence(d *definition, r *rule, ev Event) {
	if c := r.calls[ev]; c != nil {
		c.n++
		e.produce(d, c, 1, true)
		return
	}
	c := &call{def: d, rule: r, ev: ev, n: 1}
	e.apply(c)
	if len(c.out) == 0 && len(c.deps) == 0 {
		return
	}
	r.calls[ev] = c
	e.link(d, c)
	e.produce(d, c, 1, true)
}

func (e *Engine) dropOccurrence(d *definition, r *rule, ev Event) {
	c := r.calls[ev]
	if c == nil {
		return
	}
	e.produce(d, c, 1, false)
	if c.n--; c.n == 0 {
		e.unlink(d, c)
		e.unregister(c)
		delete(r.calls, ev)
		c.dead = true
	}
}

func (e *Engine) reapply(d *definition, c *call) {
	e.produce(d, c, c.n, false)
	e.unlink(d, c)
	e.apply(c)
	if len(c.out) == 0 && len(c.deps) == 0 {
		delete(c.rule.calls, c.ev)
		c.dead = true
		return
	}
	e.link(d, c)
	e.produce(d, c, c.n, true)
}

// produce adds copies of the call's answer to the definition's output
// — derived occurrences, or the simple fluent's entities to derive
// again — or, add false, takes them back.
func (e *Engine) produce(d *definition, c *call, copies int, add bool) {
	if d.event != nil {
		e.emit(d, c, copies, add)
		return
	}
	for _, entity := range c.out {
		e.markDirty(d, entity)
	}
}

// link files a simple fluent's call under the entities it names.
func (e *Engine) link(d *definition, c *call) {
	if d.simple == nil {
		return
	}
	for _, entity := range c.out {
		g := d.ground(entity)
		g.calls = append(g.calls, c)
	}
}

func (e *Engine) unlink(d *definition, c *call) {
	if d.simple == nil {
		return
	}
	for _, entity := range c.out {
		if g := d.ents[entity]; g != nil {
			if i := slices.Index(g.calls, c); i >= 0 {
				g.calls = slices.Delete(g.calls, i, i+1)
			}
		}
	}
}

func (d *definition) ground(entity string) *grounding {
	if d.ents == nil {
		d.ents = make(map[string]*grounding)
	}
	g := d.ents[entity]
	if g == nil {
		g = &grounding{}
		d.ents[entity] = g
	}
	return g
}

func (e *Engine) markDirty(d *definition, entity string) {
	if g := d.ground(entity); g.dirty != e.step {
		g.dirty = e.step
		d.dirty = append(d.dirty, entity)
	}
}

// emit adds (or removes) copies of a derived event call's occurrences.
func (e *Engine) emit(d *definition, c *call, copies int, add bool) {
	if len(c.out) == 0 || copies == 0 {
		return
	}
	dl := e.delta(d.name)
	for _, entity := range c.out {
		ev := Event{Name: d.name, Entity: entity, Time: c.ev.Time, Lon: c.ev.Lon, Lat: c.ev.Lat}
		for range copies {
			if add {
				e.derived = insertEvent(e.derived, ev)
				e.derivedBy[d.name] = insertEvent(e.derivedBy[d.name], ev)
				dl.added = append(dl.added, ev)
				e.added = append(e.added, ev)
				continue
			}
			e.derived = removeEvent(e.derived, ev)
			if by := removeEvent(e.derivedBy[d.name], ev); len(by) > 0 {
				e.derivedBy[d.name] = by
			} else {
				delete(e.derivedBy, d.name)
			}
			dl.removed = append(dl.removed, ev)
		}
	}
	e.markChanged(depKey{FluentKey{Fluent: d.name}, depList})
}

func insertEvent(list []Event, ev Event) []Event {
	i := sort.Search(len(list), func(i int) bool { return compareEvent(list[i], ev) > 0 })
	return slices.Insert(list, i, ev)
}

func removeEvent(list []Event, ev Event) []Event {
	i := sort.Search(len(list), func(i int) bool { return compareEvent(list[i], ev) >= 0 })
	if i < len(list) && list[i] == ev {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// evalSimpleFluent brings a simple fluent's calls up to date and
// derives again the entities their answers moved.
func (e *Engine) evalSimpleFluent(d *definition) {
	e.evalRules(d)
	slices.Sort(d.dirty)
	for _, entity := range slices.Compact(d.dirty) {
		e.deriveSimple(d, entity)
	}
	d.dirty = d.dirty[:0]
}

// deriveSimple computes the maximal intervals of one entity of a simple
// fluent, for every value, from the initiation and termination points
// its calls hold, implementing holdsFor with the broken semantics of
// the paper's rules (1) and (2).
func (e *Engine) deriveSimple(d *definition, entity string) {
	g := d.ents[entity]
	if g == nil {
		return
	}
	e.stats.Evaluated++
	e.evaluated++
	inits := make(map[string][]WeightedPoint)
	terms := make(map[string][]WeightedPoint)
	for _, c := range g.calls {
		p := WeightedPoint{Time: c.ev.Time, P: certainty(c.ev)}
		for range c.n {
			if c.rule.init {
				inits[c.rule.value] = append(inits[c.rule.value], p)
			} else {
				terms[c.rule.value] = append(terms[c.rule.value], p)
			}
		}
	}
	values := make([]string, 0, len(inits))
	for value, points := range inits {
		values = append(values, value)
		slices.SortFunc(points, compareWeighted)
	}
	sort.Strings(values)
	for _, old := range g.values {
		if _, ok := inits[old]; !ok {
			e.deleteInstance(FluentKey{Fluent: d.name, Entity: entity, Value: old})
		}
	}
	g.values = values
	if len(g.calls) == 0 {
		delete(d.ents, entity)
	}

	// Probabilistic recognition applies to Boolean fluents: a single True
	// value with init/term rules (Prob-EC's setting). Fluents with other
	// values stay crisp.
	if e.theta > 0 && len(inits) == 1 && inits[True] != nil {
		slices.SortFunc(terms[True], compareWeighted)
		steps := EvolveProbability(inits[True], terms[True], 0)
		key := FluentKey{Fluent: d.name, Entity: entity, Value: True}
		e.beliefs[key] = steps
		e.setInstance(key, ThresholdIntervals(steps, e.theta))
		return
	}
	for _, value := range values {
		// Break points for F=V: terminations of V plus initiations of any
		// other value (rule (2)).
		breaks := slices.Clone(terms[value])
		for _, other := range values {
			if other != value {
				breaks = append(breaks, inits[other]...)
			}
		}
		slices.SortFunc(breaks, compareWeighted)
		var ivs []Interval
		for _, ts := range inits[value] {
			// First break strictly after ts.
			i := sort.Search(len(breaks), func(i int) bool { return breaks[i].Time > ts.Time })
			until := Inf
			if i < len(breaks) {
				until = breaks[i].Time
			}
			ivs = append(ivs, Interval{Since: ts.Time, Until: until})
		}
		key := FluentKey{Fluent: d.name, Entity: entity, Value: value}
		delete(e.beliefs, key)
		e.setInstance(key, normalize(ivs))
	}
}

// evalStaticFluent brings a statically determined fluent up to date:
// its groundings when what chose them changed, and the entities whose
// Compute reads changed.
func (e *Engine) evalStaticFluent(d *definition) {
	def := d.static
	var todo []string
	reground := !d.grounded
	stale := d.stale
	d.stale = nil
	for _, c := range stale {
		c.queued = false
		switch {
		case c == d.groundCall:
			reground = true
		case !c.dead:
			todo = append(todo, c.entity)
		}
	}
	if reground {
		entities := def.Entities
		if entities == nil && def.EntitiesOf != nil {
			if d.groundCall == nil {
				d.groundCall = &call{def: d}
			}
			e.evalCall(d.groundCall, func(ctx *Ctx) { entities = def.EntitiesOf(ctx) })
		}
		grounded := make([]string, 0, len(entities))
		for _, entity := range entities {
			if e.declaredOK(def.Name, entity) {
				grounded = append(grounded, entity)
			}
		}
		slices.Sort(grounded)
		grounded = slices.Compact(grounded)
		for _, entity := range d.entities {
			if _, ok := slices.BinarySearch(grounded, entity); !ok {
				g := d.ents[entity]
				e.unregister(g.eval)
				g.eval.dead = true
				delete(d.ents, entity)
				e.deleteInstance(FluentKey{Fluent: def.Name, Entity: entity, Value: True})
			}
		}
		for _, entity := range grounded {
			if _, ok := slices.BinarySearch(d.entities, entity); !ok {
				todo = append(todo, entity)
			}
		}
		d.entities, d.grounded = grounded, true
	}
	slices.Sort(todo)
	window := Interval{Since: e.ctx.WindowStart, Until: Inf}
	for _, entity := range slices.Compact(todo) {
		g := d.ground(entity)
		if g.eval == nil {
			g.eval = &call{def: d, entity: entity}
		}
		var ivs IntervalList
		e.evalCall(g.eval, func(ctx *Ctx) { ivs = Clip(window, def.Compute(ctx, entity)) })
		e.stats.Evaluated++
		e.evaluated++
		key := FluentKey{Fluent: def.Name, Entity: entity, Value: True}
		if len(ivs) == 0 {
			e.deleteInstance(key)
			continue
		}
		e.setInstance(key, ivs)
	}
}

// setInstance records an instance's maximal intervals; an unchanged
// list is not a change.
func (e *Engine) setInstance(key FluentKey, ivs IntervalList) {
	old, had := e.fluents[key]
	if had && slices.Equal(old, ivs) {
		return
	}
	e.fluents[key] = ivs
	if len(ivs) > 0 && !ivs[0].Open() && (len(old) == 0 || old[0].Until != ivs[0].Until) {
		e.ends.Push(ivs[0].Until, key)
	}
	e.changed = append(e.changed, key)
	e.instanceChanged(key, old, ivs)
}

func (e *Engine) deleteInstance(key FluentKey) {
	old, had := e.fluents[key]
	if !had {
		return
	}
	delete(e.fluents, key)
	delete(e.beliefs, key)
	e.changed = append(e.changed, key)
	e.instanceChanged(key, old, nil)
}

// instanceChanged tells the instance's readers, and the readers and
// triggers of its built-in events, that it changed.
func (e *Engine) instanceChanged(key FluentKey, old, ivs IntervalList) {
	e.markChanged(depKey{key, depInstance})
	if key.Value != True || len(e.markers) == 0 && e.readerKinds[depBuiltin] == 0 && !e.builtinTriggers() {
		return
	}
	b := e.builtin(key.Fluent)
	b.version++
	e.markChanged(depKey{FluentKey{Fluent: b.start}, depBuiltin})
	e.markChanged(depKey{FluentKey{Fluent: b.end}, depBuiltin})
	if !b.triggers {
		return
	}
	ds, de := e.delta(b.start), e.delta(b.end)
	for _, iv := range old {
		ds.remove(Event{Name: b.start, Entity: key.Entity, Time: iv.Since})
		if !iv.Open() {
			de.remove(Event{Name: b.end, Entity: key.Entity, Time: iv.Until})
		}
	}
	for _, iv := range ivs {
		ds.added = append(ds.added, Event{Name: b.start, Entity: key.Entity, Time: iv.Since})
		if !iv.Open() {
			de.added = append(de.added, Event{Name: b.end, Entity: key.Entity, Time: iv.Until})
		}
	}
}

// builtinNames is a fluent's built-in event names, whether a rule is
// triggered by either, and a count of changes to its instances.
type builtinNames struct {
	start, end string
	triggers   bool
	version    int
}

// builtin returns the fluent's built-in event names, cached until the
// event description changes.
func (e *Engine) builtin(fluent string) *builtinNames {
	if b := e.builtins[fluent]; b != nil {
		return b
	}
	if e.builtins == nil {
		e.builtins = make(map[string]*builtinNames)
	}
	b := &builtinNames{start: "start:" + fluent, end: "end:" + fluent}
	b.triggers = e.triggers(b.start, b.end)
	e.builtins[fluent] = b
	return b
}

// builtinTriggers reports whether any rule is triggered by a built-in
// event, cached until the event description changes.
func (e *Engine) builtinTriggers() bool {
	if e.builtinTriggered == 0 {
		e.builtinTriggered = -1
		for _, defs := range [2][]*definition{e.eventDefs, e.defs} {
			for _, d := range defs {
				for _, r := range d.rules {
					if strings.HasPrefix(r.Event, "start:") || strings.HasPrefix(r.Event, "end:") {
						e.builtinTriggered = 1
					}
				}
			}
		}
	}
	return e.builtinTriggered > 0
}

// triggers reports whether a rule is triggered by either name.
func (e *Engine) triggers(names ...string) bool {
	for _, defs := range [2][]*definition{e.eventDefs, e.defs} {
		for _, d := range defs {
			for _, r := range d.rules {
				if slices.Contains(names, r.Event) {
					return true
				}
			}
		}
	}
	return false
}

// markerList returns the built-in start(F=true) or end(F=true) events
// of a fluent behind the working memory's occurrences of the name, in
// chronological order, rebuilding them when the fluent's instances
// changed. A fluent's instances are disjoint maximal intervals listed in
// entity order, so co-timed markers come out in entity order.
func (e *Engine) markerList(name, fluent string, end bool) []Event {
	version := e.builtin(fluent).version
	if ml := e.markers[name]; ml != nil && ml.step == e.step && ml.version == version {
		return ml.evs
	}
	var entities []string
	for key := range e.fluents {
		if key.Fluent == fluent && key.Value == True {
			entities = append(entities, key.Entity)
		}
	}
	slices.Sort(entities)
	evs := slices.Clone(e.lists[name].all())
	for _, entity := range entities {
		ivs, _ := e.current(FluentKey{Fluent: fluent, Entity: entity, Value: True})
		for _, iv := range ivs {
			switch {
			case !end:
				evs = append(evs, Event{Name: name, Entity: entity, Time: iv.Since})
			case !iv.Open():
				evs = append(evs, Event{Name: name, Entity: entity, Time: iv.Until})
			}
		}
	}
	slices.SortStableFunc(evs, compareEventTime)
	e.markers[name] = &markerList{step: e.step, version: version, evs: evs}
	return evs
}

// eventsNamed returns the working memory's occurrences of a name merged
// with the derived ones, the memory's first at equal times.
func (e *Engine) eventsNamed(name string) []Event {
	mem, der := e.lists[name].all(), e.derivedBy[name]
	if len(der) == 0 {
		return mem
	}
	if len(mem) == 0 {
		return der
	}
	out := make([]Event, 0, len(mem)+len(der))
	for len(mem) > 0 && len(der) > 0 {
		if mem[0].Time <= der[0].Time {
			out, mem = append(out, mem[0]), mem[1:]
		} else {
			out, der = append(out, der[0]), der[1:]
		}
	}
	return append(append(out, mem...), der...)
}

// Expiry holds keys under timepoints and hands them back once the
// window start passes them: a binary min-heap, for state that must be
// forgotten with the working memory without a pass over all of it.
type Expiry[K any] struct{ items []expiring[K] }

type expiring[K any] struct {
	t Timepoint
	k K
}

// Push files k under t.
func (x *Expiry[K]) Push(t Timepoint, k K) {
	x.items = append(x.items, expiring[K]{t, k})
	for i := len(x.items) - 1; i > 0; {
		p := (i - 1) / 2
		if x.items[p].t <= x.items[i].t {
			break
		}
		x.items[p], x.items[i] = x.items[i], x.items[p]
		i = p
	}
}

// Expire removes every key filed at or before t, calling fn for each in
// time order. fn may Push.
func (x *Expiry[K]) Expire(t Timepoint, fn func(K)) {
	for len(x.items) > 0 && x.items[0].t <= t {
		k := x.items[0].k
		n := len(x.items) - 1
		x.items[0] = x.items[n]
		x.items[n] = expiring[K]{}
		x.items = x.items[:n]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < n && x.items[l].t < x.items[m].t {
				m = l
			}
			if l+1 < n && x.items[l+1].t < x.items[m].t {
				m = l + 1
			}
			if m == i {
				break
			}
			x.items[i], x.items[m] = x.items[m], x.items[i]
			i = m
		}
		fn(k)
	}
}
