package maritime

import (
	"slices"

	"repro/internal/geo"
	"repro/internal/rtec"
)

// Checkpoint support. A recognizer serializes its dynamic state — the
// RTEC engine's working memory, the retained spatial facts, the alert
// dedupe set, and the alert count — while the event description, static
// world knowledge, and spatial index are rebuilt from configuration by
// NewRecognizer on restore, and everything derived (intervals, count
// fluents, the close/3 memo) by one rescan of the restored memory.

// RecognizerSnapshot is the serialized dynamic state of one Recognizer.
// The dedupe set is flattened to a sorted slice so the encoding is
// deterministic.
type RecognizerSnapshot struct {
	Engine     rtec.EngineSnapshot
	Facts      []SpatialFact
	Seen       []Alert
	AlertCount int
}

// Snapshot captures the recognizer's dynamic state. It must not run
// concurrently with Advance.
func (r *Recognizer) Snapshot() RecognizerSnapshot {
	snap := RecognizerSnapshot{
		Engine:     r.engine.Snapshot(),
		Facts:      slices.Clone(r.facts),
		AlertCount: r.CECount(),
	}
	for a := range r.seen {
		snap.Seen = append(snap.Seen, a)
	}
	slices.SortFunc(snap.Seen, CompareAlerts)
	return snap
}

// RestoreSnapshot replaces the recognizer's dynamic state with a
// snapshot's. The recognizer must have been built by NewRecognizer with
// the same configuration and world knowledge as the one that took the
// snapshot; only dynamic state transfers. It must not run concurrently
// with Advance.
func (r *Recognizer) RestoreSnapshot(snap RecognizerSnapshot) {
	// What the engine's rescan reads — the spatial facts and the count
	// fluents it rebuilds — goes first.
	r.facts, r.grown = slices.Clone(snap.Facts), r.grown[:0]
	clear(r.factIdx)
	for _, f := range r.facts {
		r.indexFact(f)
	}
	r.stopped = newCountFluent(r.stopped.name)
	r.fishing = newCountFluent(r.fishing.name)
	clear(r.closeMemo)
	r.memoExpiry = rtec.Expiry[geo.Point]{}
	r.engine.Restore(snap.Engine)

	clear(r.intervals)
	r.held = 0
	for _, a := range r.areas {
		for _, ce := range []string{CESuspicious, CEIllegalFishing} {
			key := rtec.FluentKey{Fluent: ce, Entity: a.ID, Value: rtec.True}
			if ivs, ok := r.engine.Instance(key); ok {
				r.intervals[key] = ivs
				r.held += len(ivs)
			}
		}
	}
	r.seen = make(map[Alert]bool, len(snap.Seen))
	r.seenExpiry = rtec.Expiry[Alert]{}
	for _, a := range snap.Seen {
		r.seen[a] = true
		r.seenExpiry.Push(a.Time.Unix(), a)
	}
	r.alertCount = snap.AlertCount
}
