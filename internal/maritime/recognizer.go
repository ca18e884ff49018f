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
	// the working memory (they accompany MEs and share their window
	// semantics); factIdx indexes them per advance:
	// vessel entity → ME timestamp → area IDs close to the vessel then.
	facts   []SpatialFact
	factIdx map[string]map[rtec.Timepoint][]string

	// closeMemo memoises close/3 per position. The answer is a pure
	// function of static world knowledge, yet every ME is asked for it in
	// each of the ω/β overlapping windows it lives in: it is computed on
	// the first ask and dropped after the first query step that no longer
	// asks, i.e. once the ME has left the working memory.
	closeMemo map[geo.Point]*closeEntry
	step      uint64 // the current query step, stamped on memo reads

	// stopped and fishing are the step's count fluents (count.go).
	stopped, fishing countFluent

	// seen dedupes user-facing alerts: with β < ω the same CE occurrence
	// is re-derived by every overlapping window instantiation. An alert
	// is forgotten once its time leaves the window, when its trigger can
	// no longer be in the working memory.
	seen map[Alert]bool
	// alertCount is the number of alerts emitted so far, including those
	// before a restored checkpoint was taken.
	alertCount int
}

// closeEntry is the close/3 answer for one position: the IDs of the
// close areas grouped by kind, in area-index order within a kind.
type closeEntry struct {
	ids  []string
	off  [numKinds + 1]int // ids[off[k]:off[k+1]] are the areas of kind k
	step uint64            // the last query step that read the entry
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

// closeTo returns the memoised close/3 answer for p, resolving it on
// the first ask.
func (r *Recognizer) closeTo(p geo.Point) *closeEntry {
	e := r.closeMemo[p]
	if e == nil {
		areas := r.closeAreas(p)
		e = &closeEntry{ids: make([]string, 0, len(areas))}
		for k := AreaKind(0); k < numKinds; k++ {
			for _, a := range areas {
				if a.Kind == k {
					e.ids = append(e.ids, a.ID)
				}
			}
			e.off[k+1] = len(e.ids)
		}
		r.closeMemo[p] = e
	}
	e.step = r.step
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
	e := r.closeTo(geo.Point{Lon: ev.Lon, Lat: ev.Lat})
	return e.ids[e.off[kind]:e.off[kind+1]:e.off[kind+1]]
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

	// Scenario 3 (rule 5): illegalShipping(Area) happens when a vessel's
	// communication gap starts close to a protected area.
	r.engine.DefineEvent(rtec.EventDef{
		Name: CEIllegalShipping,
		Rules: []rtec.TriggerRule{{
			Event: MEGap,
			Map: func(ctx *rtec.Ctx, ev rtec.Event) []string {
				return r.proximity(ev, KindProtected)
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
				for _, id := range r.proximity(ev, KindShallow) {
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
				for _, id := range r.proximity(ev, KindWatch) {
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
				for _, id := range r.proximity(ev, KindWatch) {
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
		return r.proximity(ev, KindForbiddenFishing)
	}
	fishingTerm := func(ctx *rtec.Ctx, ev rtec.Event) []string {
		if !r.vessel(ev.Entity).Fishing {
			return nil
		}
		var out []string
		for _, id := range r.proximity(ev, KindForbiddenFishing) {
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
	// Intervals holds the maximal intervals of the durative CEs.
	Intervals map[rtec.FluentKey]rtec.IntervalList
}

// Advance runs one recognition step at query time q over the movement
// events (and, in SpatialFacts mode, the accompanying proximity facts)
// received since the previous step.
func (r *Recognizer) Advance(q time.Time, events []rtec.Event, facts []SpatialFact) Snapshot {
	windowStart := q.Add(-r.cfg.Window).Unix()
	if r.cfg.Mode == SpatialFacts {
		// Facts share the MEs' window semantics: retain those whose
		// timestamps are still inside (q-ω, q], merge the new batch, and
		// index the survivors — each (vessel, time, area) once, however
		// many slides delivered it.
		retained := r.facts
		r.facts = r.facts[:0]
		r.factIdx = make(map[string]map[rtec.Timepoint][]string)
		for _, batch := range [2][]SpatialFact{retained, facts} {
			for _, f := range batch {
				if f.Time <= windowStart {
					continue
				}
				byTime := r.factIdx[f.Vessel]
				if byTime == nil {
					byTime = make(map[rtec.Timepoint][]string)
					r.factIdx[f.Vessel] = byTime
				}
				if !slices.Contains(byTime[f.Time], f.AreaID) {
					byTime[f.Time] = append(byTime[f.Time], f.AreaID)
					r.facts = append(r.facts, f)
				}
			}
		}
	}
	r.step++
	res := r.engine.Advance(q.Unix(), events)
	// Every ME in the working memory was re-evaluated by this step, so an
	// entry nobody read belongs to an ME that has left it.
	for p, e := range r.closeMemo {
		if e.step != r.step {
			delete(r.closeMemo, p)
		}
	}
	for a := range r.seen {
		if a.Time.Unix() <= windowStart {
			delete(r.seen, a)
		}
	}

	snap := Snapshot{Query: q, Intervals: make(map[rtec.FluentKey]rtec.IntervalList)}
	add := func(a Alert) {
		snap.Recognized++
		if r.seen[a] {
			return
		}
		r.seen[a] = true
		snap.Alerts = append(snap.Alerts, a)
	}
	for _, ev := range res.Derived {
		// Derived event entities are area IDs (the CE's subject).
		add(Alert{CE: ev.Name, AreaID: ev.Entity, Time: time.Unix(ev.Time, 0).UTC()})
	}
	for key, ivs := range res.Fluents {
		if key.Fluent != CESuspicious && key.Fluent != CEIllegalFishing {
			continue
		}
		snap.Intervals[key] = ivs
		for _, iv := range ivs {
			add(Alert{CE: key.Fluent, AreaID: key.Entity, Time: time.Unix(iv.Since, 0).UTC()})
		}
	}
	slices.SortStableFunc(snap.Alerts, CompareAlerts)
	r.alertCount += len(snap.Alerts)
	return snap
}

// CECount returns the total number of CE recognitions so far: derived
// instantaneous occurrences plus durative interval starts, including
// those recognized before a restored checkpoint was taken.
func (r *Recognizer) CECount() int { return r.alertCount }
