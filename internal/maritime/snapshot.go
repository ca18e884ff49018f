package maritime

import (
	"slices"

	"repro/internal/rtec"
)

// Checkpoint support. A recognizer serializes its dynamic state — the
// RTEC engine's working memory and intervals, the retained spatial
// facts, the alert dedupe set, and the alert count — while the event
// description, static world knowledge, and spatial index are rebuilt
// from configuration by NewRecognizer on restore.

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
	r.engine.Restore(snap.Engine)
	r.facts = slices.Clone(snap.Facts)
	r.factIdx = nil // rebuilt on the next Advance
	r.seen = make(map[Alert]bool, len(snap.Seen))
	for _, a := range snap.Seen {
		r.seen[a] = true
	}
	r.alertCount = snap.AlertCount
}
