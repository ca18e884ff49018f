package maritime

import (
	"slices"

	"repro/internal/rtec"
)

// countFluent is one count behind the suspicious and illegalFishing
// rules — how many vessels are active close to an area at a timepoint,
// the paper's vesselsStoppedIn(Area) and its fishing counterpart. The
// answer depends only on the step's input fluents and start MEs, so it
// is built once per query step, on the first ask, as a statically
// determined fluent: per area ID, the half-open time pieces [lo, hi)
// during which one vessel counts towards the area, kept as the sorted
// lower ends and the sorted upper ends. One vessel's pieces are
// disjoint, so the count at t is the number of lower ends at or before t
// less the number of upper ends at or before t: two binary searches.
type countFluent struct {
	step  uint64 // the query step the pieces belong to
	areas map[string]*pieces
}

type pieces struct{ lo, hi []rtec.Timepoint }

// at returns the count for the area at t, first building the step's
// pieces with add when they belong to an earlier step. Storage is kept
// for every area that had pieces in the previous step.
func (c *countFluent) at(step uint64, areaID string, t rtec.Timepoint, add func(*countFluent)) int {
	if c.step != step {
		if c.areas == nil {
			c.areas = make(map[string]*pieces)
		}
		for id, p := range c.areas {
			if len(p.lo) == 0 {
				delete(c.areas, id)
			}
			p.lo, p.hi = p.lo[:0], p.hi[:0]
		}
		c.step = step
		add(c)
		for _, p := range c.areas {
			slices.Sort(p.lo)
			slices.Sort(p.hi)
		}
	}
	p := c.areas[areaID]
	if p == nil {
		return 0
	}
	started, _ := slices.BinarySearch(p.lo, t+1)
	ended, _ := slices.BinarySearch(p.hi, t+1)
	return started - ended
}

// addPieces adds the pieces of every vessel holding the input fluent
// (fishing vessels only, if asked). A vessel is located by its latest
// start ME: each start places it from its own time until the next later
// start — on equal times the first in the working memory wins — and
// there the vessel counts towards the areas of the kind close to that
// start wherever the fluent holds, at t in (Since, Until] of one of its
// intervals.
func (r *Recognizer) addPieces(ctx *rtec.Ctx, c *countFluent, fluent, startME string, kind AreaKind, fishingOnly bool) {
	ctx.EntityRuns(startME, func(entity string, starts []rtec.Event) {
		if fishingOnly && !r.vessel(entity).Fishing {
			return
		}
		ivs := ctx.IntervalsOf(fluent, entity, rtec.True)
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
			ids := r.proximity(at, kind)
			for _, iv := range ivs {
				lo, hi := max(iv.Since+1, at.Time), until
				if iv.Until < hi {
					hi = iv.Until + 1
				}
				if lo >= hi {
					continue
				}
				for _, id := range ids {
					p := c.areas[id]
					if p == nil {
						p = &pieces{}
						c.areas[id] = p
					}
					p.lo, p.hi = append(p.lo, lo), append(p.hi, hi)
				}
			}
		}
	})
}

// stoppedNear counts the vessels stopped close to the area at time t —
// the paper's vesselsStoppedIn(Area) fluent.
func (r *Recognizer) stoppedNear(ctx *rtec.Ctx, areaID string, t rtec.Timepoint) int {
	return r.stopped.at(r.step, areaID, t, func(c *countFluent) {
		r.addPieces(ctx, c, "stopped", MEStopStart, KindWatch, false)
	})
}

// fishingActivityNear counts the fishing vessels whose stop or
// slow-motion episode holds at t close to the forbidden-fishing area.
func (r *Recognizer) fishingActivityNear(ctx *rtec.Ctx, areaID string, t rtec.Timepoint) int {
	return r.fishing.at(r.step, areaID, t, func(c *countFluent) {
		r.addPieces(ctx, c, "stopped", MEStopStart, KindForbiddenFishing, true)
		r.addPieces(ctx, c, "lowSpeed", MESlowStart, KindForbiddenFishing, true)
	})
}
