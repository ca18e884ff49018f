package rtec

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// The indexed working memory of one query step. Two structures answer
// the questions rules ask of the window without scanning it: an
// eventList per event name (chronological occurrences plus, built on
// first use, the per-entity time-ordered runs behind LastEvent) and an
// instance table per fluent=value (the computed instances in entity
// order behind EntitiesHolding). The engine keeps their storage across
// query steps; a name or fluent that stays empty for a whole step is
// dropped, so both are bounded by the working memory.

// eventList holds the window occurrences of one event name.
type eventList struct {
	evs []Event
	// unsorted is set when an append broke chronological order (the
	// start/end markers of a fluent are produced entity by entity);
	// events restores the order before anyone reads the list.
	unsorted bool
	// order lists the positions of evs by (Entity, position): the
	// occurrences of one entity are contiguous and chronological.
	order   []int32
	indexed bool
}

func (l *eventList) add(ev Event) {
	if n := len(l.evs); n > 0 && ev.Time < l.evs[n-1].Time {
		l.unsorted = true
	}
	l.evs = append(l.evs, ev)
	l.indexed = false
}

// events returns the occurrences in chronological order; occurrences
// sharing a timepoint stay in the order they were added.
func (l *eventList) events() []Event {
	if l == nil {
		return nil
	}
	if l.unsorted {
		slices.SortStableFunc(l.evs, compareEventTime)
		l.unsorted = false
	}
	return l.evs
}

// entityOrder returns the chronological occurrences and their
// positions grouped by entity, (re)building the grouping when
// occurrences were added since it was last built.
func (l *eventList) entityOrder() ([]Event, []int32) {
	if l == nil {
		return nil, nil
	}
	evs := l.events()
	if !l.indexed {
		l.order = l.order[:0]
		for i := range evs {
			l.order = append(l.order, int32(i))
		}
		slices.SortFunc(l.order, func(a, b int32) int {
			if c := strings.Compare(evs[a].Entity, evs[b].Entity); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		l.indexed = true
	}
	return evs, l.order
}

// lastAtOrBefore returns the entity's latest occurrence at or before
// t; among occurrences sharing that timepoint, the first added.
func (l *eventList) lastAtOrBefore(entity string, t Timepoint) (Event, bool) {
	evs, order := l.entityOrder()
	// The first position past the entity's occurrences up to t.
	hi := sort.Search(len(order), func(i int) bool {
		ev := &evs[order[i]]
		if c := strings.Compare(ev.Entity, entity); c != 0 {
			return c > 0
		}
		return ev.Time > t
	})
	if hi == 0 || evs[order[hi-1]].Entity != entity {
		return Event{}, false
	}
	best := &evs[order[hi-1]]
	for i := hi - 2; i >= 0; i-- {
		ev := &evs[order[i]]
		if ev.Time != best.Time || ev.Entity != entity {
			break
		}
		best = ev
	}
	return *best, true
}

// fluentValue names one instance table.
type fluentValue struct{ Fluent, Value string }

// instance is one computed fluent instance of a table.
type instance struct {
	entity string
	ivs    IntervalList
}

// instanceTable lists the computed instances of one fluent=value in
// entity order.
type instanceTable struct{ rows []instance }

// set records the entity's intervals, replacing an earlier entry.
func (t *instanceTable) set(entity string, ivs IntervalList) {
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

// list returns the event list of name, creating it when absent.
func (c *Ctx) list(name string) *eventList {
	l := c.byName[name]
	if l == nil {
		l = &eventList{}
		c.byName[name] = l
	}
	return l
}

// setFluent records the maximal intervals of a computed fluent instance
// in the result, in its instance table and as built-in start/end
// events.
func (c *Ctx) setFluent(key FluentKey, ivs IntervalList) {
	c.fluents[key] = ivs
	fv := fluentValue{key.Fluent, key.Value}
	t := c.instances[fv]
	if t == nil {
		t = &instanceTable{}
		c.instances[fv] = t
	}
	t.set(key.Entity, ivs)
	c.emitStartEnd(key, ivs)
}

// reset empties the index for the next query step, keeping the storage
// of every list and table that was in use and dropping the rest.
func (c *Ctx) reset() {
	for name, l := range c.byName {
		if len(l.evs) == 0 {
			delete(c.byName, name)
			continue
		}
		l.evs, l.unsorted, l.indexed = l.evs[:0], false, false
	}
	for fv, t := range c.instances {
		if len(t.rows) == 0 {
			delete(c.instances, fv)
			continue
		}
		clear(t.rows) // release the previous step's interval lists
		t.rows = t.rows[:0]
	}
}

// EventsNamed returns the window occurrences of the named event in
// chronological order, including derived and built-in start/end events
// already produced. The slice is owned by the engine and valid for the
// current query step.
func (c *Ctx) EventsNamed(name string) []Event { return c.byName[name].events() }

// LastEvent returns the entity's latest window occurrence of any of the
// named events at or before t — how a rule locates a vessel while a
// durative fluent holds. Among occurrences sharing the latest timepoint
// the first name wins, then the first occurrence in the working memory.
// ok is false when the window has no such occurrence.
func (c *Ctx) LastEvent(entity string, t Timepoint, names ...string) (ev Event, ok bool) {
	for _, name := range names {
		l := c.byName[name]
		if l == nil {
			continue
		}
		if cand, found := l.lastAtOrBefore(entity, t); found && (!ok || cand.Time > ev.Time) {
			ev, ok = cand, true
		}
	}
	return ev, ok
}

// EntitiesHolding appends to dst the entities for which fluent=value
// holds at t, in sorted order, and returns the extended slice — the
// helper behind aggregate conditions like vesselsStoppedIn.
func (c *Ctx) EntitiesHolding(dst []string, fluent, value string, t Timepoint) []string {
	if tab := c.instances[fluentValue{fluent, value}]; tab != nil {
		for i := range tab.rows {
			if tab.rows[i].ivs.HoldsAt(t) {
				dst = append(dst, tab.rows[i].entity)
			}
		}
	}
	return dst
}
