package maritime

import (
	"slices"
	"strconv"
	"time"

	"repro/internal/geo"
	"repro/internal/rtec"
)

// Mode selects how spatial relations between vessels and areas are
// obtained during recognition (the paper's Figure 11(a) vs 11(b)).
type Mode int

const (
	// SpatialOnDemand computes close/3 with Haversine geometry inside the
	// CE rules (Figure 11(a)).
	SpatialOnDemand Mode = iota
	// SpatialFacts consumes precomputed proximity facts accompanying the
	// ME stream instead of reasoning spatially (Figure 11(b)).
	SpatialFacts
)

// Config parameterizes a Recognizer.
type Config struct {
	// Window is the RTEC working-memory range ω.
	Window time.Duration
	// CloseMeters is the close/3 proximity threshold (default 3000 m).
	CloseMeters float64
	// Mode selects on-demand spatial reasoning or precomputed facts.
	Mode Mode
	// SuspiciousMin is the vessel count above which an area becomes
	// suspicious; the paper's domain experts set it so that "at least
	// four vessels" must have stopped (N > 3).
	SuspiciousMin int
	// DisableGridIndex forces linear scans over all areas in close/3;
	// exposed for the ablation benchmark.
	DisableGridIndex bool
	// ProbThreshold > 0 enables probabilistic recognition of the
	// durative CEs (Prob-EC semantics over ME detection confidences): a
	// CE holds while its belief is at least this threshold. Zero keeps
	// recognition crisp.
	ProbThreshold float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Hour
	}
	if c.CloseMeters <= 0 {
		c.CloseMeters = 3000
	}
	if c.SuspiciousMin <= 0 {
		c.SuspiciousMin = 4
	}
	return c
}

// Recognizer wires the paper's four complex event definitions into an
// RTEC engine over the given static world knowledge.
type Recognizer struct {
	cfg     Config
	engine  *rtec.Engine
	vessels map[string]Vessel
	areas   []*Area
	byID    map[string]*Area
	idx     *geo.AreaIndex
	idxList []*Area // same order as the index's polygons

	// facts retains the spatial facts whose timestamps are still within
	// the working memory, in time order (they accompany MEs and share
	// their window semantics); factIdx indexes them:
	// vessel entity → ME timestamp → area IDs close to the vessel then.
	facts   []SpatialFact
	factIdx map[string]map[rtec.Timepoint][]string
	// grown lists the (vessel, time) pairs whose facts the last batch
	// added to: a rule already applied to an ME there may answer
	// differently now.
	grown []SpatialFact

	// closeMemo memoises close/3 per position. The answer is a pure
	// function of static world knowledge, asked for an ME when a rule is
	// applied to it and again when a count's pieces are rebuilt: it is
	// computed on the first ask and forgotten once every ME at the
	// position has left the working memory (memoExpiry files each entry
	// under the latest ME time that asked).
	closeMemo  map[geo.Point]*closeEntry
	memoExpiry rtec.Expiry[geo.Point]

	// stopped and fishing are the count fluents (count.go).
	stopped, fishing countFluent

	// seen dedupes user-facing alerts: with β < ω the same CE occurrence
	// is derived in every overlapping window instantiation. An alert is
	// forgotten once its time leaves the window (seenExpiry), when its
	// trigger can no longer be in the working memory.
	seen       map[Alert]bool
	seenExpiry rtec.Expiry[Alert]
	// intervals holds the durative CEs' instances as of the last step
	// (Snapshot.Intervals), held the number of maximal intervals in it.
	intervals map[rtec.FluentKey]rtec.IntervalList
	held      int
	// alertCount is the number of alerts emitted so far, including those
	// before a restored checkpoint was taken.
	alertCount int
}

// closeEntry is the close/3 answer for one position: the IDs of the
// close areas grouped by kind, in area-index order within a kind.
type closeEntry struct {
	ids  []string
	off  [numKinds + 1]int // ids[off[k]:off[k+1]] are the areas of kind k
	last rtec.Timepoint    // the latest ME time that asked
}

// SpatialFact states that a vessel was close to an area at the
// timestamp of one of its MEs (the paper's Figure 11(b) input: "each ME
// ... is accompanied by facts stating whether the vessel is 'close' to
// some area of interest — the timestamp of these facts is the same as
// the timestamp of the ME").
type SpatialFact struct {
	Vessel string
	AreaID string
	Time   rtec.Timepoint
}

// NewRecognizer builds the recognition run-time. vessels supplies the
// static registry; areas supplies every area of interest including the
// watch areas for the suspicious CE.
func NewRecognizer(cfg Config, vessels []Vessel, areas []Area) *Recognizer {
	cfg = cfg.withDefaults()
	r := &Recognizer{
		cfg:       cfg,
		engine:    rtec.NewEngine(int64(cfg.Window / time.Second)),
		vessels:   make(map[string]Vessel, len(vessels)),
		byID:      make(map[string]*Area, len(areas)),
		closeMemo: make(map[geo.Point]*closeEntry),
		seen:      make(map[Alert]bool),
		intervals: make(map[rtec.FluentKey]rtec.IntervalList),
		factIdx:   make(map[string]map[rtec.Timepoint][]string),
		stopped:   newCountFluent("vesselsStoppedIn"),
		fishing:   newCountFluent("fishingVesselsIn"),
	}
	for _, v := range vessels {
		r.vessels[v.Entity()] = v
	}
	for i := range areas {
		a := areas[i]
		r.areas = append(r.areas, &a)
		r.byID[a.ID] = r.areas[len(r.areas)-1]
	}
	if !cfg.DisableGridIndex {
		polys := make([]*geo.Polygon, len(r.areas))
		for i, a := range r.areas {
			polys[i] = a.Poly
		}
		r.idx = geo.NewAreaIndex(polys, cfg.CloseMeters, 0.25)
		r.idxList = r.areas
	}
	r.install()
	return r
}

// Engine exposes the underlying RTEC engine (for interval queries).
func (r *Recognizer) Engine() *rtec.Engine { return r.engine }

// closeAreas implements close/3: the areas within CloseMeters of p.
func (r *Recognizer) closeAreas(p geo.Point) []*Area {
	var out []*Area
	if r.idx != nil {
		for _, i := range r.idx.CloseTo(p, r.cfg.CloseMeters) {
			out = append(out, r.idxList[i])
		}
		return out
	}
	for _, a := range r.areas {
		if a.Poly.DistanceMeters(p) <= r.cfg.CloseMeters {
			out = append(out, a)
		}
	}
	return out
}

// closeTo returns the memoised close/3 answer for the position of an ME
// at time t, resolving it on the first ask.
func (r *Recognizer) closeTo(p geo.Point, t rtec.Timepoint) *closeEntry {
	e := r.closeMemo[p]
	if e == nil {
		areas := r.closeAreas(p)
		e = &closeEntry{ids: make([]string, 0, len(areas)), last: t}
		for k := AreaKind(0); k < numKinds; k++ {
			for _, a := range areas {
				if a.Kind == k {
					e.ids = append(e.ids, a.ID)
				}
			}
			e.off[k+1] = len(e.ids)
		}
		r.closeMemo[p] = e
		r.memoExpiry.Push(t, p)
	} else if t > e.last {
		e.last = t
		r.memoExpiry.Push(t, p)
	}
	return e
}

// proximity resolves the areas of the given kind close to the vessel at
// the event's position and time, honoring the configured mode. The
// result is shared and must not be modified.
func (r *Recognizer) proximity(ev rtec.Event, kind AreaKind) []string {
	if r.cfg.Mode == SpatialFacts {
		var out []string
		for _, id := range r.factIdx[ev.Entity][ev.Time] {
			if a := r.byID[id]; a != nil && a.Kind == kind {
				out = append(out, id)
			}
		}
		return out
	}
	e := r.closeTo(geo.Point{Lon: ev.Lon, Lat: ev.Lat}, ev.Time)
	return e.ids[e.off[kind]:e.off[kind+1]:e.off[kind+1]]
}

// closeOf is proximity for a rule or a count: in SpatialFacts mode the
// answer rests on the facts delivered so far for the ME's vessel and
// time, which a later batch may add to, so the read is recorded.
func (r *Recognizer) closeOf(ctx *rtec.Ctx, ev rtec.Event, kind AreaKind) []string {
	if r.cfg.Mode == SpatialFacts {
		ctx.DependOn(factKey(ev.Entity, ev.Time), ev.Time)
	}
	return r.proximity(ev, kind)
}

// factKey names the facts of one vessel at one time as an aggregate
// value.
func factKey(vessel string, t rtec.Timepoint) rtec.FluentKey {
	return rtec.FluentKey{Fluent: "closeFacts", Entity: vessel, Value: strconv.FormatInt(t, 10)}
}

// vessel returns the static record for an entity; unknown vessels get a
// zero record (not fishing, zero draft), as with vessels missing from
// the paper's database.
func (r *Recognizer) vessel(entity string) Vessel {
	v, ok := r.vessels[entity]
	if !ok {
		mmsi, _ := strconv.ParseUint(entity, 10, 32)
		return Vessel{MMSI: uint32(mmsi)}
	}
	return v
}

// install registers the input fluents and the four CE definitions.
func (r *Recognizer) install() {
	// Durative input MEs (paper §4.1): stopped and lowSpeed.
	r.engine.DeclareInputFluent(rtec.InputFluent{Name: "stopped", StartEvent: MEStopStart, EndEvent: MEStopEnd})
	r.engine.DeclareInputFluent(rtec.InputFluent{Name: "lowSpeed", StartEvent: MESlowStart, EndEvent: MESlowEnd})

	// RTEC declarations (paper footnote 3): restrict the computation of
	// each durative CE's maximal intervals to the areas it can apply to —
	// the watch areas for suspicious, the forbidden-fishing areas for
	// illegalFishing. Proximity already filters by kind; the declaration
	// makes the restriction structural, as in RTEC.
	var watchIDs, forbiddenIDs []string
	for _, a := range r.areas {
		switch a.Kind {
		case KindWatch:
			watchIDs = append(watchIDs, a.ID)
		case KindForbiddenFishing:
			forbiddenIDs = append(forbiddenIDs, a.ID)
		}
	}
	r.engine.Declare(CESuspicious, watchIDs)
	r.engine.Declare(CEIllegalFishing, forbiddenIDs)

	if r.cfg.ProbThreshold > 0 {
		r.engine.SetProbabilistic(r.cfg.ProbThreshold)
	}

	// The count fluents the suspicious and illegalFishing rules read, and
	// in SpatialFacts mode the facts behind every proximity answer.
	if r.cfg.Mode == SpatialFacts {
		r.engine.DefineAggregate("closeFacts", func(ctx *rtec.Ctx) {
			for _, f := range r.grown {
				ctx.Invalidate(factKey(f.Vessel, f.Time), f.Time, f.Time+1)
			}
		})
	}
	r.engine.DefineAggregate(r.stopped.name, r.updateStopped)
	r.engine.DefineAggregate(r.fishing.name, r.updateFishing)

	// Scenario 3 (rule 5): illegalShipping(Area) happens when a vessel's
	// communication gap starts close to a protected area.
	r.engine.DefineEvent(rtec.EventDef{
		Name: CEIllegalShipping,
		Rules: []rtec.TriggerRule{{
			Event: MEGap,
			Map: func(ctx *rtec.Ctx, ev rtec.Event) []string {
				return r.closeOf(ctx, ev, KindProtected)
			},
		}},
	})

	// Scenario 4 (rule 6): dangerousShipping(Area) happens when a vessel
	// moves slowly over waters too shallow for its draft.
	r.engine.DefineEvent(rtec.EventDef{
		Name: CEDangerousShipping,
		Rules: []rtec.TriggerRule{{
			Event: MESlowMotion,
			Map: func(ctx *rtec.Ctx, ev rtec.Event) []string {
				v := r.vessel(ev.Entity)
				var out []string
				for _, id := range r.closeOf(ctx, ev, KindShallow) {
					if Shallow(r.byID[id], v) {
						out = append(out, id)
					}
				}
				return out
			},
		}},
	})

	// Scenario 1 (rule-set 3): suspicious(Area) while more than
	// SuspiciousMin-1 vessels are stopped close to a watch area.
	r.engine.DefineSimpleFluent(rtec.SimpleFluentDef{
		Name: CESuspicious,
		Init: map[string][]rtec.TriggerRule{rtec.True: {{
			Event: MEStopStart,
			Map: func(ctx *rtec.Ctx, ev rtec.Event) []string {
				var out []string
				for _, id := range r.closeOf(ctx, ev, KindWatch) {
					if r.stoppedNear(ctx, id, ev.Time+1) >= r.cfg.SuspiciousMin {
						out = append(out, id)
					}
				}
				return out
			},
		}}},
		Term: map[string][]rtec.TriggerRule{rtec.True: {{
			Event: MEStopEnd,
			Map: func(ctx *rtec.Ctx, ev rtec.Event) []string {
				var out []string
				for _, id := range r.closeOf(ctx, ev, KindWatch) {
					if r.stoppedNear(ctx, id, ev.Time+1) < r.cfg.SuspiciousMin {
						out = append(out, id)
					}
				}
				return out
			},
		}}},
	})

	// Scenario 2 (rule-set 4): illegalFishing(Area) while a fishing
	// vessel is stopped or moving slowly close to a forbidden area.
	fishingInit := func(ctx *rtec.Ctx, ev rtec.Event) []string {
		if !r.vessel(ev.Entity).Fishing {
			return nil
		}
		return r.closeOf(ctx, ev, KindForbiddenFishing)
	}
	fishingTerm := func(ctx *rtec.Ctx, ev rtec.Event) []string {
		if !r.vessel(ev.Entity).Fishing {
			return nil
		}
		var out []string
		for _, id := range r.closeOf(ctx, ev, KindForbiddenFishing) {
			if r.fishingActivityNear(ctx, id, ev.Time+1) == 0 {
				out = append(out, id)
			}
		}
		return out
	}
	r.engine.DefineSimpleFluent(rtec.SimpleFluentDef{
		Name: CEIllegalFishing,
		Init: map[string][]rtec.TriggerRule{rtec.True: {
			{Event: MEStopStart, Map: fishingInit},
			{Event: MESlowMotion, Map: fishingInit},
		}},
		Term: map[string][]rtec.TriggerRule{rtec.True: {
			{Event: MEStopEnd, Map: fishingTerm},
			{Event: MESlowEnd, Map: fishingTerm},
		}},
	})
}

// Snapshot is the recognition output of one query step.
type Snapshot struct {
	Query time.Time
	// Alerts are the complex events newly recognized at this step:
	// instantaneous CE occurrences plus durative CE interval starts not
	// already reported by a previous (overlapping) window.
	Alerts []Alert
	// Recognized counts every CE instance derivable from the current
	// window contents, whether or not previously reported — the quantity
	// the paper's Figure 11 tracks per query time.
	Recognized int
	// Intervals holds the maximal intervals of the durative CEs. The map
	// is the recognizer's own, valid until the next Advance.
	Intervals map[rtec.FluentKey]rtec.IntervalList
}

// Advance runs one recognition step at query time q over the movement
// events (and, in SpatialFacts mode, the accompanying proximity facts)
// received since the previous step. Its cost follows what the step
// changed, not what the window holds.
func (r *Recognizer) Advance(q time.Time, events []rtec.Event, facts []SpatialFact) Snapshot {
	windowStart := q.Add(-r.cfg.Window).Unix()
	if r.cfg.Mode == SpatialFacts {
		r.admitFacts(windowStart, facts)
	}
	r.memoExpiry.Expire(windowStart, func(p geo.Point) {
		if e := r.closeMemo[p]; e != nil && e.last <= windowStart {
			delete(r.closeMemo, p)
		}
	})
	r.seenExpiry.Expire(windowStart, func(a Alert) { delete(r.seen, a) })
	res := r.engine.Advance(q.Unix(), events)

	snap := Snapshot{Query: q, Intervals: r.intervals}
	for _, ev := range res.Added {
		// Derived event entities are area IDs (the CE's subject).
		r.alert(&snap, Alert{CE: ev.Name, AreaID: ev.Entity, Time: time.Unix(ev.Time, 0).UTC()})
	}
	for _, key := range res.Changed {
		if key.Fluent != CESuspicious && key.Fluent != CEIllegalFishing {
			continue
		}
		ivs, ok := r.engine.Instance(key)
		r.held += len(ivs) - len(r.intervals[key])
		if !ok {
			delete(r.intervals, key)
			continue
		}
		r.intervals[key] = ivs
		for _, iv := range ivs {
			r.alert(&snap, Alert{CE: key.Fluent, AreaID: key.Entity, Time: time.Unix(iv.Since, 0).UTC()})
		}
	}
	snap.Recognized = len(res.Derived) + r.held
	slices.SortStableFunc(snap.Alerts, CompareAlerts)
	r.alertCount += len(snap.Alerts)
	return snap
}

// alert reports a recognized CE unless an earlier step already did. A
// step reports what it added or changed, and everything it carried
// forward was reported when it was added, so every CE instance of the
// window is checked against the dedupe set when it first appears.
func (r *Recognizer) alert(snap *Snapshot, a Alert) {
	if r.seen[a] {
		return
	}
	r.seen[a] = true
	r.seenExpiry.Push(a.Time.Unix(), a)
	snap.Alerts = append(snap.Alerts, a)
}

// admitFacts forgets the facts at or before the window start and indexes
// the new batch's — each (vessel, time, area) once, however many slides
// delivered it.
func (r *Recognizer) admitFacts(windowStart rtec.Timepoint, batch []SpatialFact) {
	expired := 0
	for expired < len(r.facts) && r.facts[expired].Time <= windowStart {
		f := r.facts[expired]
		if byTime := r.factIdx[f.Vessel]; byTime != nil {
			if delete(byTime, f.Time); len(byTime) == 0 {
				delete(r.factIdx, f.Vessel)
			}
		}
		expired++
	}
	r.facts = r.facts[expired:]
	r.grown = r.grown[:0]
	for _, f := range batch {
		if f.Time > windowStart && r.indexFact(f) {
			r.grown = append(r.grown, f)
			// Keep the facts in time order, arrival order at equal times.
			i := len(r.facts)
			for i > 0 && r.facts[i-1].Time > f.Time {
				i--
			}
			r.facts = slices.Insert(r.facts, i, f)
		}
	}
}

// indexFact adds a fact to the index, reporting whether it was new.
func (r *Recognizer) indexFact(f SpatialFact) bool {
	byTime := r.factIdx[f.Vessel]
	if byTime == nil {
		byTime = make(map[rtec.Timepoint][]string)
		r.factIdx[f.Vessel] = byTime
	}
	if slices.Contains(byTime[f.Time], f.AreaID) {
		return false
	}
	byTime[f.Time] = append(byTime[f.Time], f.AreaID)
	return true
}

// CECount returns the total number of CE recognitions so far: derived
// instantaneous occurrences plus durative interval starts, including
// those recognized before a restored checkpoint was taken.
func (r *Recognizer) CECount() int { return r.alertCount }
