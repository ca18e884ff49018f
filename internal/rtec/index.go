package rtec

import (
	"slices"
	"strings"
)

// The indexed working memory. The event index persists across query
// steps: per event name, the name's occurrences in the working memory in
// chronological order and — for the names someone asked them of — each
// entity's run of them. A step updates it by what the step changed: the
// admitted batch is merged in after the occurrences already held at
// equal timestamps (admit's tie rule) and the expired prefix of the
// working memory leaves the front of the lists it reaches, so every list
// is always the working memory filtered by name (and entity). A name or
// run that empties is dropped, so the index is bounded by the working
// memory.

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
	// entity order, rebuilt on the first ask after a run came or went.
	runs    map[string]*entityRun
	order   []*entityRun
	ordered bool
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

// run returns the entity's run, creating an empty one.
func (l *eventList) run(entity string) *entityRun {
	r := l.runs[entity]
	if r == nil {
		r = &entityRun{entity: entity}
		l.runs[entity] = r
		l.ordered = false
	}
	return r
}

// buildRuns builds the runs from the list on the first ask.
func (l *eventList) buildRuns() {
	if l.runs == nil {
		l.runs = make(map[string]*entityRun)
		evs := l.events()
		for i := range evs {
			l.run(evs[i].Entity).merge(evs[i : i+1])
		}
	}
}

// entityRuns returns the runs in entity order.
func (l *eventList) entityRuns() []*entityRun {
	if l == nil {
		return nil
	}
	l.buildRuns()
	if !l.ordered {
		l.order = l.order[:0]
		for _, r := range l.runs {
			l.order = append(l.order, r)
		}
		slices.SortFunc(l.order, func(a, b *entityRun) int { return strings.Compare(a.entity, b.entity) })
		l.ordered = true
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
				l.ordered = false
			}
		}
	}
}

// run returns one entity's occurrences of a name, building the name's
// runs on the first ask.
func (e *Engine) run(name, entity string) []Event {
	l := e.lists[name]
	if l == nil {
		return nil
	}
	l.buildRuns()
	if r := l.runs[entity]; r != nil {
		return r.events()
	}
	return nil
}
