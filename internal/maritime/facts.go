package maritime

import (
	"repro/internal/geo"
	"repro/internal/rtec"
)

// FactGenerator precomputes spatial facts for the Figure 11(b) setting:
// for each movement event, it emits one fact per area of interest that
// the vessel is close to at the event's timestamp, so that recognition
// needs no spatial reasoning.
//
// The generator owns reusable scratch (the dedupe set, the output
// buffer, per-query candidate buffers), so repeated Facts calls on the
// pipeline hot path do not allocate. It is not safe for concurrent
// Facts calls.
type FactGenerator struct {
	areas       []*Area
	idx         *geo.AreaIndex
	closeMeters float64

	// Reused across calls: the per-slide dedupe set, the output slice
	// handed to the caller (valid until the next call), and the
	// proximity-candidate buffer.
	seen map[SpatialFact]bool
	out  []SpatialFact
	cand []int32
}

// NewFactGenerator builds a generator over the given areas with the
// given close/3 threshold in meters.
func NewFactGenerator(areas []Area, closeMeters float64) *FactGenerator {
	g := &FactGenerator{closeMeters: closeMeters, seen: make(map[SpatialFact]bool)}
	polys := make([]*geo.Polygon, len(areas))
	for i := range areas {
		a := areas[i]
		g.areas = append(g.areas, &a)
		polys[i] = a.Poly
	}
	g.idx = geo.NewAreaIndex(polys, closeMeters, 0.25)
	return g
}

// Facts returns the spatial facts accompanying the given movement
// events: one per distinct (vessel, timestamp, close area) triple.
// Co-timed MEs of the same vessel (e.g. slowStart and slowMotion from
// one critical point) share one fact, so fact-consuming rules fire
// exactly as often as the spatially-reasoning ones.
//
// The returned slice is generator-owned scratch, valid until the next
// Facts call; callers that retain it must copy. It is nil when no event
// is near any area.
func (g *FactGenerator) Facts(events []rtec.Event) []SpatialFact {
	if len(events) == 0 || g.idx.Len() == 0 {
		return nil
	}
	g.out = g.out[:0]
	if len(g.seen) > 0 {
		clear(g.seen)
	}
	for _, ev := range events {
		g.out = g.appendFacts(g.out, ev)
	}
	g.dedupe()
	if len(g.out) == 0 {
		return nil
	}
	return g.out
}

// appendFacts probes the area index for one event and appends one
// (possibly duplicate) fact per close area.
func (g *FactGenerator) appendFacts(dst []SpatialFact, ev rtec.Event) []SpatialFact {
	p := geo.Point{Lon: ev.Lon, Lat: ev.Lat}
	g.cand = g.idx.CloseToAppend(g.cand[:0], p, g.closeMeters)
	for _, i := range g.cand {
		dst = append(dst, SpatialFact{
			Vessel: ev.Entity,
			AreaID: g.areas[i].ID,
			Time:   ev.Time,
		})
	}
	return dst
}

// dedupe removes duplicate facts from g.out in place, preserving first
// occurrence order, using the reusable seen set.
func (g *FactGenerator) dedupe() {
	kept := g.out[:0]
	for _, f := range g.out {
		if g.seen[f] {
			continue
		}
		g.seen[f] = true
		kept = append(kept, f)
	}
	g.out = kept
}
