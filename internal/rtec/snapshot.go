package rtec

import (
	"cmp"
	"slices"
)

// Checkpoint support. Only the engine's dynamic state is serialized: the
// working memory, events pending beyond the last query time, the
// computed fluent intervals and belief functions, the last query time,
// and the counters. The event description (input fluents, definitions,
// declarations, theta) is code plus configuration — the restoring
// process re-registers it, exactly as it did at first start.

// FluentState is the serialized intervals of one fluent instance.
type FluentState struct {
	Key       FluentKey
	Intervals IntervalList
}

// BeliefState is the serialized belief function of one fluent instance
// (probabilistic mode).
type BeliefState struct {
	Key   FluentKey
	Steps []ProbStep
}

// EngineSnapshot is the serialized dynamic state of an Engine. Map-held
// state is flattened to key-sorted slices so the encoding is
// deterministic: the same engine state always serializes to the same
// bytes.
type EngineSnapshot struct {
	Memory  []Event
	Pending []Event
	Fluents []FluentState
	Beliefs []BeliefState
	LastQ   Timepoint
	Stats   Stats
}

// compareFluentKey orders fluent instances lexicographically.
func compareFluentKey(a, b FluentKey) int {
	if c := cmp.Compare(a.Fluent, b.Fluent); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Entity, b.Entity); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// Snapshot captures the engine's dynamic state. It must not run
// concurrently with Advance.
func (e *Engine) Snapshot() EngineSnapshot {
	snap := EngineSnapshot{
		Memory:  slices.Clone(e.memory.events()),
		Pending: slices.Clone(e.pending),
		LastQ:   e.lastQ,
		Stats:   e.stats,
	}
	for key, ivs := range e.fluents {
		snap.Fluents = append(snap.Fluents, FluentState{Key: key, Intervals: slices.Clone(ivs)})
	}
	slices.SortFunc(snap.Fluents, func(a, b FluentState) int { return compareFluentKey(a.Key, b.Key) })
	for key, steps := range e.beliefs {
		snap.Beliefs = append(snap.Beliefs, BeliefState{Key: key, Steps: slices.Clone(steps)})
	}
	slices.SortFunc(snap.Beliefs, func(a, b BeliefState) int { return compareFluentKey(a.Key, b.Key) })
	return snap
}

// Restore replaces the engine's dynamic state with a snapshot's. The
// event description is untouched: the caller registers it the same way
// it did on the original engine before restoring. It must not run
// concurrently with Advance.
func (e *Engine) Restore(snap EngineSnapshot) {
	// The event index is derived from the working memory: rebuild it as
	// if the whole memory had just been admitted.
	e.memory = timeline{buf: slices.Clone(snap.Memory)}
	clear(e.lists)
	e.reindex(nil, e.memory.events())
	e.pending = slices.Clone(snap.Pending)
	e.fluents = make(map[FluentKey]IntervalList, len(snap.Fluents))
	for _, fs := range snap.Fluents {
		e.fluents[fs.Key] = slices.Clone(fs.Intervals)
	}
	if len(snap.Beliefs) > 0 {
		e.beliefs = make(map[FluentKey][]ProbStep, len(snap.Beliefs))
		for _, bs := range snap.Beliefs {
			e.beliefs[bs.Key] = slices.Clone(bs.Steps)
		}
	} else {
		e.beliefs = nil
	}
	e.lastQ = snap.LastQ
	e.stats = snap.Stats
}
