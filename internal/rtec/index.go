package rtec

import (
	"slices"
	"sort"
	"strings"
)

// The indexed working memory. The event index persists across query
// steps: per event name, the name's occurrences in the working memory in
// chronological order and — for the names someone asked them of — each
// entity's run of them. A step updates it by what the step changed: the
// admitted batch is merged in after the occurrences already held at
// equal timestamps (admit's tie rule) and the expired prefix of the
// working memory leaves the front of the lists it reaches, so every list
// is always the working memory filtered by name (and entity). The step
// index is rebuilt every step: the occurrences the step itself produces
// (derived events; the built-in start/end events, built from the
// instance tables when a rule asks for them) and per fluent=value the
// computed instances in entity order. A name, run or table that stays
// empty is dropped, so both are bounded by the working memory.

// timeline is a chronological event sequence that loses a prefix and
// gains a batch every query step. Expiry only advances the start; an
// append that finds the buffer full slides the live events back to its
// start (or moves them to a buffer twice their size), so a steady window
// reuses one buffer.
type timeline struct {
	buf []Event
	lo  int
}

func (l *timeline) events() []Event { return l.buf[l.lo:] }

// expire drops the first n events.
func (l *timeline) expire(n int) {
	clear(l.buf[l.lo : l.lo+n])
	l.lo += n
}

// merge inserts a chronological batch, each event after those already
// held at its timestamp. It merges from the back, so a batch that
// arrives in order costs its own length.
func (l *timeline) merge(batch []Event) {
	held, m := len(l.buf)-l.lo, len(batch)
	if len(l.buf)+m > cap(l.buf) {
		buf := l.buf[:0]
		if held+m > cap(buf) {
			buf = make([]Event, 0, 2*(held+m))
		}
		buf = append(buf, l.buf[l.lo:]...)
		clear(l.buf[len(buf):])
		l.buf, l.lo = buf, 0
	}
	l.buf = l.buf[:len(l.buf)+m]
	evs := l.events()
	for i, k := held-1, held+m-1; m > 0; k-- {
		if i >= 0 && evs[i].Time > batch[m-1].Time {
			evs[k], i = evs[i], i-1
		} else {
			evs[k], m = batch[m-1], m-1
		}
	}
}

// eventList is the working-memory occurrences of one event name.
type eventList struct {
	timeline
	// runs holds each entity's occurrences, kept from the first time
	// someone asks for them (nil until then); order lists the runs in
	// entity order. vacated marks a run emptied by expiry, still in order
	// until the step's expiry is done.
	runs    map[string]*entityRun
	order   []*entityRun
	vacated bool
}

// entityRun is one entity's occurrences of a name.
type entityRun struct {
	entity string
	timeline
}

// all returns the occurrences, chronological (none for a nil list).
func (l *eventList) all() []Event {
	if l == nil {
		return nil
	}
	return l.events()
}

// run returns the entity's run, creating an empty one in entity order.
func (l *eventList) run(entity string) *entityRun {
	r := l.runs[entity]
	if r == nil {
		r = &entityRun{entity: entity}
		l.runs[entity] = r
		i := sort.Search(len(l.order), func(i int) bool { return l.order[i].entity >= entity })
		l.order = slices.Insert(l.order, i, r)
	}
	return r
}

// entityRuns returns the runs in entity order, building them from the
// list on the first ask.
func (l *eventList) entityRuns() []*entityRun {
	if l == nil {
		return nil
	}
	if l.runs == nil {
		l.runs = make(map[string]*entityRun)
		evs := l.events()
		for i := range evs {
			l.run(evs[i].Entity).merge(evs[i : i+1])
		}
	}
	return l.order
}

// reindex applies one step's change of the working memory to the event
// index: the admitted batch, in chronological order, is merged into the
// lists and runs, then the expired prefix leaves their front. Admitted
// events are all later than expired ones, so the prefix stays in front,
// and a list or run that gains while it loses is kept, storage and all.
func (e *Engine) reindex(expired, fresh []Event) {
	for i := range fresh {
		l := e.lists[fresh[i].Name]
		if l == nil {
			l = &eventList{}
			e.lists[fresh[i].Name] = l
		}
		l.merge(fresh[i : i+1])
		if l.runs != nil {
			l.run(fresh[i].Entity).merge(fresh[i : i+1])
		}
	}
	for i := range expired {
		ev := &expired[i]
		l := e.lists[ev.Name]
		if l.expire(1); len(l.events()) == 0 {
			delete(e.lists, ev.Name)
			continue
		}
		if r := l.runs[ev.Entity]; r != nil {
			if r.expire(1); len(r.events()) == 0 {
				delete(l.runs, ev.Entity)
				l.vacated = true
			}
		}
	}
	for _, l := range e.lists {
		if l.vacated {
			l.order = slices.DeleteFunc(l.order, func(r *entityRun) bool { return len(r.events()) == 0 })
			l.vacated = false
		}
	}
}

// stepList holds the occurrences of one name produced during a query
// step — derived events, built-in start/end events — after the working
// memory's occurrences of that name.
type stepList struct {
	evs []Event
	// unsorted is set when an append broke chronological order; events
	// restores the order before anyone reads the list.
	unsorted bool
	// opened is set once the step has put the working memory's
	// occurrences in; built is the version of the instance table a
	// built-in list was built from.
	opened bool
	built  int
}

// restart empties the list for a new step or a rebuild.
func (l *stepList) restart() {
	clear(l.evs)
	l.evs, l.unsorted, l.opened = l.evs[:0], false, false
}

func (l *stepList) add(ev Event) {
	if n := len(l.evs); n > 0 && ev.Time < l.evs[n-1].Time {
		l.unsorted = true
	}
	l.evs = append(l.evs, ev)
}

// events returns the occurrences in chronological order; occurrences
// sharing a timepoint stay in the order they were added.
func (l *stepList) events() []Event {
	if l.unsorted {
		slices.SortStableFunc(l.evs, compareEventTime)
		l.unsorted = false
	}
	return l.evs
}

// fluentValue names one instance table.
type fluentValue struct{ Fluent, Value string }

// instance is one computed fluent instance of a table.
type instance struct {
	entity string
	ivs    IntervalList
}

// instanceTable lists the computed instances of one fluent=value in
// entity order; version counts the step's updates.
type instanceTable struct {
	rows    []instance
	version int
}

// set records the entity's intervals, replacing an earlier entry.
func (t *instanceTable) set(entity string, ivs IntervalList) {
	t.version++
	n := len(t.rows)
	if n == 0 || t.rows[n-1].entity < entity {
		t.rows = append(t.rows, instance{entity, ivs})
		return
	}
	i := sort.Search(n, func(i int) bool { return t.rows[i].entity >= entity })
	if i < n && t.rows[i].entity == entity {
		t.rows[i].ivs = ivs
		return
	}
	t.rows = slices.Insert(t.rows, i, instance{entity, ivs})
}

// list returns the step list of name, creating it — behind the working
// memory's occurrences of the name — when absent.
func (c *Ctx) list(name string) *stepList {
	l := c.byName[name]
	if l == nil {
		l = &stepList{}
		c.byName[name] = l
	}
	if !l.opened {
		l.opened = true
		l.evs = append(l.evs, c.engine.lists[name].all()...)
	}
	return l
}

// table returns the instance table of fluent=value, creating it when
// absent.
func (c *Ctx) table(fluent, value string) *instanceTable {
	t := c.instances[fluentValue{fluent, value}]
	if t == nil {
		t = &instanceTable{}
		c.instances[fluentValue{fluent, value}] = t
	}
	return t
}

// setFluent records the maximal intervals of a computed fluent instance
// in the result and in its instance table.
func (c *Ctx) setFluent(key FluentKey, ivs IntervalList) {
	c.fluents[key] = ivs
	c.table(key.Fluent, key.Value).set(key.Entity, ivs)
}

// markers returns the built-in start(F=true) or end(F=true) events of a
// computed fluent, (re)building them from its instance table when the
// table changed since they were last built. A fluent's instances are
// disjoint maximal intervals set in entity order, so co-timed markers
// come out in entity order.
func (c *Ctx) markers(name, fluent string, end bool) []Event {
	version := 0
	tab := c.instances[fluentValue{fluent, True}]
	if tab != nil {
		version = tab.version
	}
	l := c.byName[name]
	if l != nil && l.opened && l.built == version {
		return l.events()
	}
	if l != nil {
		l.restart()
	}
	l = c.list(name)
	l.built = version
	if tab == nil {
		return l.events()
	}
	for _, row := range tab.rows {
		for _, iv := range row.ivs {
			switch {
			case !end:
				l.add(Event{Name: name, Entity: row.entity, Time: iv.Since})
			case !iv.Open():
				l.add(Event{Name: name, Entity: row.entity, Time: iv.Until})
			}
		}
	}
	return l.events()
}

// reset empties the step index for the next query step, keeping the
// storage of every list and table that was in use and dropping the rest.
func (c *Ctx) reset() {
	for name, l := range c.byName {
		if len(l.evs) == 0 {
			delete(c.byName, name)
			continue
		}
		l.restart()
	}
	for fv, t := range c.instances {
		if len(t.rows) == 0 {
			delete(c.instances, fv)
			continue
		}
		clear(t.rows) // release the previous step's interval lists
		t.rows, t.version = t.rows[:0], 0
	}
}

// EventsNamed returns the window occurrences of the named event in
// chronological order, including derived events and the built-in
// "start:<fluent>" and "end:<fluent>" events of the fluents computed so
// far. The slice is owned by the engine and valid for the current query
// step.
func (c *Ctx) EventsNamed(name string) []Event {
	if fluent, ok := strings.CutPrefix(name, "start:"); ok {
		return c.markers(name, fluent, false)
	}
	if fluent, ok := strings.CutPrefix(name, "end:"); ok {
		return c.markers(name, fluent, true)
	}
	if l := c.byName[name]; l != nil && l.opened {
		return l.events()
	}
	return c.engine.lists[name].all()
}

// EntityRuns calls visit once per entity with working-memory occurrences
// of the named event, in entity order, with that entity's occurrences in
// chronological order (co-timed ones in working-memory order). run is
// owned by the engine and valid for the current query step.
func (c *Ctx) EntityRuns(name string, visit func(entity string, run []Event)) {
	for _, r := range c.engine.lists[name].entityRuns() {
		visit(r.entity, r.events())
	}
}
