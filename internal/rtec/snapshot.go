package rtec

import "slices"

// Checkpoint support. Only the engine's input state is serialized: the
// working memory, events pending beyond the last query time, the last
// query time, and the counters. Everything derived from them — fluent
// intervals, belief functions, derived occurrences, the rules' kept
// answers and their reads — is left out and rebuilt on Restore by one
// rescan of the working memory. The event description (input fluents,
// aggregates, definitions, declarations, theta) is code plus
// configuration — the restoring process re-registers it, exactly as it
// did at first start.

// EngineSnapshot is the serialized input state of an Engine.
type EngineSnapshot struct {
	Memory  []Event
	Pending []Event
	LastQ   Timepoint
	Stats   Stats
}

// Snapshot captures the engine's state. It must not run concurrently
// with Advance.
func (e *Engine) Snapshot() EngineSnapshot {
	return EngineSnapshot{
		Memory:  slices.Clone(e.memory.events()),
		Pending: slices.Clone(e.pending),
		LastQ:   e.lastQ,
		Stats:   e.stats,
	}
}

// Restore replaces the engine's state with a snapshot's and derives
// again, from its working memory at its last query time, everything the
// engine that took it held; restoring the same snapshot twice leaves the
// same state. The event description is untouched: the caller registers
// it the same way it did on the original engine before restoring. It
// must not run concurrently with Advance.
func (e *Engine) Restore(snap EngineSnapshot) {
	// The event index is derived from the working memory: rebuild it as
	// if the whole memory had just been admitted.
	e.memory = timeline{buf: slices.Clone(snap.Memory)}
	clear(e.lists)
	e.reindex(nil, e.memory.events())
	e.pending = slices.Clone(snap.Pending)
	e.lastQ = snap.LastQ
	e.resetState()
	if snap.Stats.QuerySteps > 0 {
		e.rescan()
	}
	e.stats = snap.Stats
}
