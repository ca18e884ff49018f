package maritime

import (
	"slices"

	"repro/internal/rtec"
)

// countFluent is one count behind the suspicious and illegalFishing
// rules — how many vessels are active close to an area at a timepoint,
// the paper's vesselsStoppedIn(Area) and its fishing counterpart. It is
// an RTEC aggregate (rtec.Engine.DefineAggregate): per area ID, the
// half-open time pieces [lo, hi) during which one vessel counts towards
// the area, kept as the sorted lower ends and the sorted upper ends. One
// vessel's pieces are disjoint, so the count at t is the number of lower
// ends at or before t less the number of upper ends at or before t: two
// binary searches. A vessel's pieces depend only on its own start MEs
// and input fluents, so a query step replaces the pieces of the vessels
// whose boundary MEs it admitted or expired and leaves the rest.
type countFluent struct {
	name  string // the aggregate's name, the Entity of its keys is an area
	areas map[string]*pieces
	held  map[string][]piece // vessel entity → the pieces it contributes
	// moved collects, during one update, the times at which each area's
	// count may have changed: the pieces one side of a replacement has
	// and the other lacks.
	moved map[string]*[2]rtec.Timepoint
}

type pieces struct{ lo, hi []rtec.Timepoint }

// piece is one vessel's contribution to one area.
type piece struct {
	area   string
	lo, hi rtec.Timepoint
}

func newCountFluent(name string) countFluent {
	return countFluent{name: name, areas: make(map[string]*pieces), held: make(map[string][]piece), moved: make(map[string]*[2]rtec.Timepoint)}
}

// at returns the count for the area at t, recording that the running
// rule read it.
func (c *countFluent) at(ctx *rtec.Ctx, areaID string, t rtec.Timepoint) int {
	ctx.DependOn(rtec.FluentKey{Fluent: c.name, Entity: areaID}, t)
	p := c.areas[areaID]
	if p == nil {
		return 0
	}
	started, _ := slices.BinarySearch(p.lo, t+1)
	ended, _ := slices.BinarySearch(p.hi, t+1)
	return started - ended
}

// replace swaps a vessel's pieces for its new ones, noting where the
// counts moved.
func (c *countFluent) replace(vessel string, fresh []piece) {
	old := c.held[vessel]
	if slices.Equal(old, fresh) {
		return
	}
	for _, pc := range old {
		p := c.areas[pc.area]
		i, _ := slices.BinarySearch(p.lo, pc.lo)
		j, _ := slices.BinarySearch(p.hi, pc.hi)
		p.lo, p.hi = slices.Delete(p.lo, i, i+1), slices.Delete(p.hi, j, j+1)
		if len(p.lo) == 0 {
			delete(c.areas, pc.area)
		}
		if !slices.Contains(fresh, pc) {
			c.move(pc)
		}
	}
	for _, pc := range fresh {
		p := c.areas[pc.area]
		if p == nil {
			p = &pieces{}
			c.areas[pc.area] = p
		}
		i, _ := slices.BinarySearch(p.lo, pc.lo)
		j, _ := slices.BinarySearch(p.hi, pc.hi)
		p.lo, p.hi = slices.Insert(p.lo, i, pc.lo), slices.Insert(p.hi, j, pc.hi)
		if !slices.Contains(old, pc) {
			c.move(pc)
		}
	}
	if len(fresh) == 0 {
		delete(c.held, vessel)
		return
	}
	c.held[vessel] = fresh
}

// move notes that the count of a piece's area may have changed over the
// piece.
func (c *countFluent) move(pc piece) {
	if r := c.moved[pc.area]; r != nil {
		r[0], r[1] = min(r[0], pc.lo), max(r[1], pc.hi)
		return
	}
	c.moved[pc.area] = &[2]rtec.Timepoint{pc.lo, pc.hi}
}

// report tells the engine where the counts moved in this update, so
// exactly the rule applications that read a changed count are made
// again.
func (c *countFluent) report(ctx *rtec.Ctx) {
	for area, r := range c.moved {
		ctx.Invalidate(rtec.FluentKey{Fluent: c.name, Entity: area}, r[0], r[1])
		delete(c.moved, area)
	}
}

// addPieces appends a vessel's pieces for one input fluent. The vessel
// is located by its latest start ME: each start places it from its own
// time until the next later start — on equal times the first in the
// working memory wins — and there the vessel counts towards the areas of
// the kind close to that start wherever the fluent holds, at t in
// (Since, Until] of one of its intervals.
func (r *Recognizer) addPieces(ctx *rtec.Ctx, dst []piece, vessel, fluent, startME string, kind AreaKind) []piece {
	starts := ctx.Run(startME, vessel)
	ivs := ctx.IntervalsOf(fluent, vessel, rtec.True)
	for len(starts) > 0 {
		at, next := starts[0], 1
		for next < len(starts) && starts[next].Time == at.Time {
			next++
		}
		starts = starts[next:]
		until := rtec.Inf
		if len(starts) > 0 {
			until = starts[0].Time
		}
		ids := r.closeOf(ctx, at, kind)
		for _, iv := range ivs {
			lo, hi := max(iv.Since+1, at.Time), until
			if iv.Until < hi {
				hi = iv.Until + 1
			}
			if lo >= hi {
				continue
			}
			for _, id := range ids {
				dst = append(dst, piece{id, lo, hi})
			}
		}
	}
	return dst
}

// moved returns the vessels whose pieces may have changed: those whose
// boundary MEs the step admitted or expired, and in SpatialFacts mode
// those whose facts the batch added to.
func (r *Recognizer) moved(ctx *rtec.Ctx, names ...string) []string {
	vessels := ctx.Touched(names...)
	if len(r.grown) == 0 {
		return vessels
	}
	for _, f := range r.grown {
		vessels = append(vessels, f.Vessel)
	}
	slices.Sort(vessels)
	return slices.Compact(vessels)
}

// updateStopped is the vesselsStoppedIn aggregate's step.
func (r *Recognizer) updateStopped(ctx *rtec.Ctx) {
	for _, v := range r.moved(ctx, MEStopStart, MEStopEnd) {
		r.stopped.replace(v, r.addPieces(ctx, nil, v, "stopped", MEStopStart, KindWatch))
	}
	r.stopped.report(ctx)
}

// updateFishing is the fishing-activity aggregate's step.
func (r *Recognizer) updateFishing(ctx *rtec.Ctx) {
	for _, v := range r.moved(ctx, MEStopStart, MEStopEnd, MESlowStart, MESlowEnd) {
		if !r.vessel(v).Fishing {
			continue
		}
		ps := r.addPieces(ctx, nil, v, "stopped", MEStopStart, KindForbiddenFishing)
		r.fishing.replace(v, r.addPieces(ctx, ps, v, "lowSpeed", MESlowStart, KindForbiddenFishing))
	}
	r.fishing.report(ctx)
}

// stoppedNear counts the vessels stopped close to the area at time t —
// the paper's vesselsStoppedIn(Area) fluent.
func (r *Recognizer) stoppedNear(ctx *rtec.Ctx, areaID string, t rtec.Timepoint) int {
	return r.stopped.at(ctx, areaID, t)
}

// fishingActivityNear counts the fishing vessels whose stop or
// slow-motion episode holds at t close to the forbidden-fishing area.
func (r *Recognizer) fishingActivityNear(ctx *rtec.Ctx, areaID string, t rtec.Timepoint) int {
	return r.fishing.at(ctx, areaID, t)
}
