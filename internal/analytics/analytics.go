// Package analytics implements the cross-vessel analytics tier: the
// pairwise composite events the per-vessel RTEC rules cannot express.
// Every slide, the tier ingests the merged critical-point stream (the
// same synopsis recognition consumes), maintains one compact state per
// vessel, publishes positions into the shared geo.PointIndex proximity
// grid, and screens the fleet for three pairwise patterns:
//
//   - rendezvous: two vessels slow/stopped within a distance threshold,
//     sustained for several consecutive slides, away from port areas —
//     the ship-to-ship transfer pattern of Pitsikalis et al.
//   - darkRendezvous: two vessels whose AIS gaps overlap in time and
//     whose gap endpoints are mutually reachable at plausible implied
//     speed and converge — a candidate transfer carried out dark.
//   - collisionCourse: closest-point-of-approach screening over the
//     same vessel state, for every vessel heard from recently.
//
// The tier is deterministic: points are normalized to (time, MMSI)
// order before ingestion and all iteration is over sorted keys, so a
// single process and a cluster coordinator produce byte-identical
// alerts from the same merged stream.
package analytics

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/maritime"
	"repro/internal/tracker"
)

// RendezvousParams tunes the rendezvous screen.
type RendezvousParams struct {
	// DistanceMeters is the pairing radius (default 400 m).
	DistanceMeters float64
	// MaxSpeedKn is the speed ceiling for a vessel to count as loitering
	// (default 1 knot); the vessel must also be inside a tracker
	// stop/slow episode.
	MaxSpeedKn float64
	// MinSlides is how many consecutive slides a pair must stay matched
	// before the alert fires (default 3).
	MinSlides int
	// PortStandoffMeters suppresses pairs near ports, where slow
	// side-by-side traffic is routine (default 2000 m).
	PortStandoffMeters float64
}

func (p RendezvousParams) withDefaults() RendezvousParams {
	if p.DistanceMeters <= 0 {
		p.DistanceMeters = 400
	}
	if p.MaxSpeedKn <= 0 {
		p.MaxSpeedKn = 1
	}
	if p.MinSlides <= 0 {
		p.MinSlides = 3
	}
	if p.PortStandoffMeters <= 0 {
		p.PortStandoffMeters = 2000
	}
	return p
}

// DarkParams tunes the gap-linking screen (the GFW-style heuristic:
// time window + distance window + implied-speed plausibility).
type DarkParams struct {
	// MaxImpliedKn bounds the speed a vessel would have needed across
	// its own gap for the gap to be a plausible transit (default 25 kn).
	MaxImpliedKn float64
	// ConvergeMeters is how close two gap end points must be (default
	// 5000 m); the ends must also be closer than the starts were.
	ConvergeMeters float64
	// MinOverlap is the minimum temporal overlap of the two gaps
	// (default 10 minutes).
	MinOverlap time.Duration
	// Retention bounds how long a closed gap stays linkable (default 2
	// hours).
	Retention time.Duration
}

func (p DarkParams) withDefaults() DarkParams {
	if p.MaxImpliedKn <= 0 {
		p.MaxImpliedKn = 25
	}
	if p.ConvergeMeters <= 0 {
		p.ConvergeMeters = 5000
	}
	if p.MinOverlap <= 0 {
		p.MinOverlap = 10 * time.Minute
	}
	if p.Retention <= 0 {
		p.Retention = 2 * time.Hour
	}
	return p
}

// Config configures the tier.
type Config struct {
	Rendezvous RendezvousParams
	Dark       DarkParams
	// Collision parameterizes CPA screening; EnableCollision turns it
	// on (it re-alarms every time a pair newly enters conflict).
	Collision       CollisionParams
	EnableCollision bool
	// Stale evicts vessel state silent beyond this (default 30 min).
	Stale time.Duration
}

func (c Config) withDefaults() Config {
	c.Rendezvous = c.Rendezvous.withDefaults()
	c.Dark = c.Dark.withDefaults()
	c.Collision = c.Collision.withDefaults()
	if c.Stale <= 0 {
		c.Stale = 30 * time.Minute
	}
	return c
}

// vstate is the per-vessel analytics state distilled from critical
// points: the newest point's kinematics plus the open episodes. It is
// the tier's only per-vessel state; all three screens read it.
type vstate struct {
	pos        geo.Point
	at         time.Time
	speedKn    float64
	headingDeg float64
	slow       bool // inside a tracker stop/slow episode
	dark       bool // inside an open communication gap
	gapStart   geo.Point
	gapStartAt time.Time
}

type pairKey struct{ a, b uint32 } // a < b

// pairState tracks a rendezvous streak.
type pairState struct {
	streak  int
	emitted bool
}

// gapRec is one closed communication gap kept for cross-vessel linking.
type gapRec struct {
	MMSI             uint32
	StartPos, EndPos geo.Point
	StartAt, EndAt   time.Time
}

// Tier holds the cross-vessel analytics state.
type Tier struct {
	cfg     Config
	portIdx *geo.AreaIndex

	vstates    map[uint32]*vstate
	pairs      map[pairKey]*pairState
	closedGaps []gapRec
	collActive map[pairKey]bool

	// Scratch reused across slides; none of it is state, so snapshots
	// never carry it.
	idx     *geo.PointIndex
	cand    []int32
	buf     []int32
	pts     []tracker.CriticalPoint
	mmsis   []uint32
	matched map[pairKey]bool
	keys    []pairKey
	current map[pairKey]bool // the next slide's collActive
	cpa     cpaScreen
	cost    SlideCost

	// Mirrors of the counters, scraped concurrently by health probes.
	atomVessels    atomic.Int64
	atomEvicted    atomic.Int64
	atomPairAlerts atomic.Int64

	evicted    int64
	pairAlerts int64
}

// Stats reports the tier's state accounting. Safe to call concurrently
// with Slide: it reads only atomic mirrors.
type Stats struct {
	Vessels    int64 // vessels with live analytics state
	Evicted    int64 // vessel states dropped after going stale
	PairAlerts int64 // pairwise alerts emitted
}

// The tier's pairwise screens, as indices into SlideCost and Screens.
const (
	ScreenRendezvous = iota
	ScreenDark
	ScreenCollision
)

// Screens names the screens, for metric labels.
var Screens = [...]string{ScreenRendezvous: "rendezvous", ScreenDark: "dark", ScreenCollision: "collision"}

// ScreenCost is what one pairwise screen did in one slide.
type ScreenCost struct {
	Time time.Duration
	// Pairs is how many vessel (or gap) pairs the screen's proximity
	// join handed to the pattern's own test.
	Pairs int
}

// SlideCost breaks one Slide down by screen, indexed like Screens, for
// the per-screen metrics. Unlike Stats it is plain data owned by the
// sliding goroutine.
type SlideCost [len(Screens)]ScreenCost

// New builds the tier. ports are the port polygons used to suppress
// in-harbor rendezvous pairs; nil disables the suppression.
func New(cfg Config, ports []*geo.Polygon) *Tier {
	cfg = cfg.withDefaults()
	t := &Tier{
		cfg:        cfg,
		vstates:    make(map[uint32]*vstate),
		pairs:      make(map[pairKey]*pairState),
		collActive: make(map[pairKey]bool),
		idx:        geo.NewPointIndex(cfg.Rendezvous.DistanceMeters / 50_000),
		matched:    make(map[pairKey]bool),
		current:    make(map[pairKey]bool),
	}
	if len(ports) > 0 {
		t.portIdx = geo.NewAreaIndex(ports, cfg.Rendezvous.PortStandoffMeters, 0.25)
	}
	return t
}

// Stats snapshots the atomic mirrors.
func (t *Tier) Stats() Stats {
	return Stats{
		Vessels:    t.atomVessels.Load(),
		Evicted:    t.atomEvicted.Load(),
		PairAlerts: t.atomPairAlerts.Load(),
	}
}

// LastSlideCost reports what each screen cost in the most recent Slide.
// Call it from the goroutine that slides.
func (t *Tier) LastSlideCost() SlideCost { return t.cost }

// Slide ingests one slide's fresh critical points and returns the
// pairwise alerts recognized at query time q, in canonical alert order.
// The input slice is not modified.
func (t *Tier) Slide(q time.Time, fresh []tracker.CriticalPoint) []maritime.Alert {
	// Normalize to the canonical (time, MMSI) order: the single-process
	// path hands shard-merged points, the coordinator hands worker-
	// concatenated ones; after this stable sort both are byte-identical.
	t.pts = append(t.pts[:0], fresh...)
	tracker.SortCriticalPoints(t.pts)
	t.cost = SlideCost{}

	var alerts []maritime.Alert
	for _, cp := range t.pts {
		v := t.vstates[cp.MMSI]
		if v == nil {
			v = &vstate{}
			t.vstates[cp.MMSI] = v
		}
		if cp.Time.After(v.at) {
			v.pos, v.at, v.speedKn, v.headingDeg = cp.Pos, cp.Time, cp.SpeedKn, cp.HeadingDeg
		}
		switch cp.Type {
		case tracker.EventStopStart, tracker.EventSlowStart:
			v.slow = true
		case tracker.EventStopEnd, tracker.EventSlowEnd:
			v.slow = false
		case tracker.EventGapStart:
			v.dark = true
			v.gapStart, v.gapStartAt = cp.Pos, cp.Time
		case tracker.EventGapEnd:
			if v.dark {
				g := gapRec{
					MMSI:     cp.MMSI,
					StartPos: v.gapStart, StartAt: v.gapStartAt,
					EndPos: cp.Pos, EndAt: cp.Time,
				}
				start := time.Now()
				alerts = t.linkGap(alerts, g)
				t.closedGaps = append(t.closedGaps, g)
				t.cost[ScreenDark].Time += time.Since(start)
			}
			v.dark = false
		}
	}

	t.evictStale(q)
	start := time.Now()
	t.pruneGaps(q)
	t.cost[ScreenDark].Time += time.Since(start)
	start = time.Now()
	alerts = t.rendezvousScreen(alerts, q)
	t.cost[ScreenRendezvous].Time = time.Since(start)
	if t.cfg.EnableCollision {
		start = time.Now()
		alerts = t.collisionScreen(alerts, q)
		t.cost[ScreenCollision].Time = time.Since(start)
		t.cost[ScreenCollision].Pairs = t.cpa.pairs
	}

	slices.SortStableFunc(alerts, maritime.CompareAlerts)
	t.pairAlerts += int64(len(alerts))
	t.atomPairAlerts.Store(t.pairAlerts)
	t.atomVessels.Store(int64(len(t.vstates)))
	t.atomEvicted.Store(t.evicted)
	return alerts
}

// evictStale drops vessels silent beyond Stale, and any pair streak
// touching a dropped vessel. Vessels inside a stop/slow episode or an
// open gap are exempt: the synopsis is legitimately silent between a
// StopStart and its StopEnd (and across a gap), and those are exactly
// the vessels the rendezvous and dark screens are watching. Their
// episodes always close with an End/GapEnd point (or the vessel ages
// out of the tracker and its state is rebuilt), so the exemption is
// bounded.
func (t *Tier) evictStale(q time.Time) {
	cut := q.Add(-t.cfg.Stale)
	for mmsi, v := range t.vstates {
		if v.at.Before(cut) && !v.slow && !v.dark {
			delete(t.vstates, mmsi)
			t.evicted++
		}
	}
	for k := range t.pairs {
		if t.vstates[k.a] == nil || t.vstates[k.b] == nil {
			delete(t.pairs, k)
		}
	}
	for k := range t.collActive {
		if t.vstates[k.a] == nil || t.vstates[k.b] == nil {
			delete(t.collActive, k)
		}
	}
}

// pruneGaps forgets closed gaps beyond the linking retention.
func (t *Tier) pruneGaps(q time.Time) {
	cut := q.Add(-t.cfg.Dark.Retention)
	kept := t.closedGaps[:0]
	for _, g := range t.closedGaps {
		if !g.EndAt.Before(cut) {
			kept = append(kept, g)
		}
	}
	t.closedGaps = kept
}

// linkGap matches a just-closed gap against every other vessel's stored
// gaps: overlapping in time, each transit plausible at implied speed,
// and end points converging. Called before g itself is stored, so every
// unordered gap pair is examined exactly once, in the deterministic
// order gaps close. Alerts are appended to out.
func (t *Tier) linkGap(out []maritime.Alert, g gapRec) []maritime.Alert {
	p := t.cfg.Dark
	for _, h := range t.closedGaps {
		if h.MMSI == g.MMSI {
			continue
		}
		t.cost[ScreenDark].Pairs++
		overlapStart := maxTime(g.StartAt, h.StartAt)
		overlapEnd := minTime(g.EndAt, h.EndAt)
		if overlapEnd.Sub(overlapStart) < p.MinOverlap {
			continue
		}
		if impliedKnots(g) > p.MaxImpliedKn || impliedKnots(h) > p.MaxImpliedKn {
			continue
		}
		endDist := geo.Haversine(g.EndPos, h.EndPos)
		if endDist > p.ConvergeMeters || endDist >= geo.Haversine(g.StartPos, h.StartPos) {
			continue
		}
		a, b := g.MMSI, h.MMSI
		if a > b {
			a, b = b, a
		}
		out = append(out, maritime.Alert{
			CE:     maritime.CEDarkRendezvous,
			Time:   maxTime(g.EndAt, h.EndAt),
			Vessel: a, Vessel2: b,
		})
	}
	return out
}

// impliedKnots is the average speed a vessel must have sustained to
// cross its own gap.
func impliedKnots(g gapRec) float64 {
	secs := g.EndAt.Sub(g.StartAt).Seconds()
	if secs <= 0 {
		return 0
	}
	return geo.MetersPerSecondToKnots(geo.Haversine(g.StartPos, g.EndPos) / secs)
}

// rendezvousScreen pairs loitering vessels through the proximity index
// and advances each pair's streak; a pair that stays matched MinSlides
// consecutive slides fires once per episode. Alerts are appended to out.
func (t *Tier) rendezvousScreen(out []maritime.Alert, q time.Time) []maritime.Alert {
	p := t.cfg.Rendezvous
	// Collect loitering vessels in MMSI order and publish them into the
	// shared proximity index. A pair is suppressed when either member is
	// near a port, so a vessel near a port can never match: it is left
	// out here, once, instead of being paired with every neighbour on
	// its quay and discarded pair by pair.
	mmsis := t.mmsis[:0]
	for mmsi, v := range t.vstates {
		if v.slow && !v.dark && v.speedKn <= p.MaxSpeedKn && !t.nearPort(v.pos, p.PortStandoffMeters) {
			mmsis = append(mmsis, mmsi)
		}
	}
	slices.Sort(mmsis)
	t.mmsis = mmsis
	t.idx.Reset()
	for i, mmsi := range mmsis {
		t.idx.Add(int32(i), t.vstates[mmsi].pos)
	}

	matched := t.matched
	clear(matched)
	for i, mmsi := range mmsis {
		t.cand = t.idx.NearAppend(t.cand[:0], t.vstates[mmsi].pos, p.DistanceMeters)
		for _, jj := range t.cand {
			j := int(jj)
			if j <= i {
				continue // Haversine-exact query is symmetric: lower index owns the pair
			}
			matched[pairKey{mmsi, mmsis[j]}] = true
		}
	}
	t.cost[ScreenRendezvous].Pairs = len(matched)

	// Advance streaks: matched pairs accumulate, unmatched ones reset.
	for k := range t.pairs {
		if !matched[k] {
			delete(t.pairs, k)
		}
	}
	keys := t.keys[:0]
	for k := range matched {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, comparePairKeys)
	t.keys = keys
	for _, k := range keys {
		ps := t.pairs[k]
		if ps == nil {
			ps = &pairState{}
			t.pairs[k] = ps
		}
		ps.streak++
		if ps.streak >= t.cfg.Rendezvous.MinSlides && !ps.emitted {
			ps.emitted = true
			out = append(out, maritime.Alert{
				CE:     maritime.CERendezvous,
				Time:   q,
				Vessel: k.a, Vessel2: k.b,
			})
		}
	}
	return out
}

// nearPort reports whether p lies within standoff of any port polygon.
func (t *Tier) nearPort(p geo.Point, standoff float64) bool {
	if t.portIdx == nil {
		return false
	}
	t.buf = t.portIdx.CloseToAppend(t.buf[:0], p, standoff)
	return len(t.buf) > 0
}

// collisionScreen runs CPA over the tier's vessel state and alerts on
// pairs newly in conflict; a pair re-alarms only after leaving conflict
// first. Alerts are appended to out.
func (t *Tier) collisionScreen(out []maritime.Alert, q time.Time) []maritime.Alert {
	current := t.current
	clear(current)
	for _, e := range t.cpa.encounters(&t.cfg.Collision, t.vstates, q) {
		k := pairKey{e.A, e.B}
		if current[k] {
			continue
		}
		current[k] = true
		if !t.collActive[k] {
			out = append(out, maritime.Alert{
				CE:     maritime.CECollisionCourse,
				Time:   q,
				Vessel: e.A, Vessel2: e.B,
			})
		}
	}
	t.collActive, t.current = current, t.collActive
	return out
}

func comparePairKeys(x, y pairKey) int {
	if x.a != y.a {
		if x.a < y.a {
			return -1
		}
		return 1
	}
	if x.b != y.b {
		if x.b < y.b {
			return -1
		}
		return 1
	}
	return 0
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
