package fleetsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
)

// NoiseConfig controls the stream imperfections the paper emphasizes:
// GPS discrepancies and sea drift, abrupt off-course outliers
// (Figure 2(d)), dropped messages, and spontaneous communication gaps.
type NoiseConfig struct {
	JitterMeters  float64 // σ of per-fix position jitter
	OutlierProb   float64 // probability a fix is displaced far off course
	OutlierMeters float64 // scale of outlier displacement
	DropProb      float64 // probability a report is lost in transit
	GapPerHour    float64 // rate of spontaneous reporting silences
	GapMin        time.Duration
	GapMax        time.Duration
}

// DefaultNoise matches the qualitative noise profile of coastal AIS.
func DefaultNoise() NoiseConfig {
	return NoiseConfig{
		JitterMeters:  8,
		OutlierProb:   0.002,
		OutlierMeters: 900,
		DropProb:      0.01,
		GapPerHour:    0.04,
		GapMin:        12 * time.Minute,
		GapMax:        35 * time.Minute,
	}
}

// Config parameterizes a simulation run.
type Config struct {
	Seed     int64
	Vessels  int // fleet size N (the paper's dataset has N = 6425)
	NumAreas int // areas of interest (the paper uses 35)
	Start    time.Time
	Duration time.Duration
	Noise    NoiseConfig
	// RendezvousPairs and DarkPairs script additional vessel pairs (on
	// top of Vessels) acting out the pairwise analytics ground truth:
	// offshore rendezvous and dark gap-linked meetings. Zero (the
	// default) adds nothing, keeping the simulated stream byte-identical
	// to earlier configurations.
	RendezvousPairs int
	DarkPairs       int
}

// DefaultConfig returns a small but representative configuration:
// 500 vessels for six hours starting 1 June 2009, 35 areas.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		Vessels:  500,
		NumAreas: 35,
		Start:    time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC),
		Duration: 6 * time.Hour,
		Noise:    DefaultNoise(),
	}
}

// TruthKind tags a scripted ground-truth episode.
type TruthKind int

// Ground-truth kinds, one per scripted scenario.
const (
	TruthLoiter TruthKind = iota // group stop in open water
	TruthGapInProtected
	TruthFishingInForbidden
	TruthShallowPass
	TruthRendezvous     // scripted pair holding station together offshore
	TruthDarkRendezvous // scripted pair meeting under overlapping AIS gaps
)

// String names the truth kind.
func (k TruthKind) String() string {
	return []string{"loiter", "gap-in-protected", "fishing-in-forbidden",
		"shallow-pass", "rendezvous", "dark-rendezvous"}[k]
}

// TruthEvent records one scripted episode so tests and the experiment
// harness can check that recognition finds what was planted.
type TruthEvent struct {
	Kind       TruthKind
	MMSI       uint32
	MMSI2      uint32 // second vessel of a scripted pair episode; else 0
	AreaID     string // empty for open-water loitering
	Near       geo.Point
	Start, End time.Time
}

// Simulator generates the synthetic AIS workload.
type Simulator struct {
	cfg         Config
	world       *World
	fleet       []VesselSpec
	loiterSpots []geo.Point

	// itins holds every vessel's scripted itinerary. The scripted pairs'
	// are built with the fleet (they share one RNG stream with their
	// specs); the base fleet's are built by the first Run, ScriptedPos
	// or Truth, since a program that only needs the world and the fleet
	// (a live-feed consumer such as cmd/serve -feed) never replays them. truth is complete once
	// built: base episodes in fleet order, then the pairs'.
	itins     []*itinerary
	built     sync.Once
	truth     []TruthEvent
	pairTruth []TruthEvent
}

// NewSimulator builds the world, the fleet and the scripted pairs'
// itineraries, deterministically from cfg.Seed. Each base vessel's
// itinerary is drawn from its own RNG, so building those later (see
// Simulator.itins) yields the same ones.
func NewSimulator(cfg Config) *Simulator {
	if cfg.Vessels <= 0 {
		cfg.Vessels = 1
	}
	if cfg.NumAreas <= 0 {
		cfg.NumAreas = 35
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Simulator{
		cfg:   cfg,
		world: NewWorld(cfg.Seed+1, cfg.NumAreas),
	}
	s.fleet = buildFleet(rng, cfg.Vessels)
	s.itins = make([]*itinerary, len(s.fleet))

	// Pre-pick shared scripted targets.
	s.loiterSpots = []geo.Point{
		s.world.randomOffshorePoint(rng),
		s.world.randomOffshorePoint(rng),
	}
	s.buildPairs()
	return s
}

// buildItineraries builds the base fleet's itineraries, once.
func (s *Simulator) buildItineraries() {
	s.built.Do(s.buildBase)
}

// buildBase scripts every base vessel (the first cfg.Vessels specs;
// the scripted pairs follow them) from its own RNG and completes the
// ground truth.
func (s *Simulator) buildBase() {
	loiterSpots := s.loiterSpots
	protected := s.world.AreasOfKind(AreaProtected)
	forbidden := s.world.AreasOfKind(AreaForbiddenFishing)
	shallow := s.world.AreasOfKind(AreaShallow)

	var loiterIdx int
	for i := range s.fleet[:s.cfg.Vessels] {
		vrng := rand.New(rand.NewSource(s.cfg.Seed + 1000 + int64(i)))
		spec := &s.fleet[i]
		switch spec.Behavior {
		case BehaviorDocked:
			s.itins[i] = s.buildDocked(vrng, spec)
		case BehaviorFerry:
			s.itins[i] = s.buildFerry(vrng, spec)
		case BehaviorVoyager:
			s.itins[i] = s.buildVoyager(vrng, spec)
		case BehaviorPassing:
			s.itins[i] = s.buildPassing(vrng, spec)
		case BehaviorFisher:
			s.itins[i] = s.buildFisher(vrng, spec, forbidden)
		case BehaviorLoiterer:
			spot := loiterSpots[loiterIdx%len(loiterSpots)]
			loiterIdx++
			s.itins[i] = s.buildLoiterer(vrng, spec, spot)
		case BehaviorSmuggler:
			s.itins[i] = s.buildSmuggler(vrng, spec, protected)
		case BehaviorShoalRunner:
			s.itins[i] = s.buildShoalRunner(vrng, spec, shallow)
		}
	}
	s.truth = append(s.truth, s.pairTruth...)
}

// buildPairs appends the scripted pairwise-analytics actors — the
// rendezvous and dark pairs of Config — after the base fleet, driven by
// their own RNG so enabling them never perturbs the base stream.
func (s *Simulator) buildPairs() {
	if s.cfg.RendezvousPairs <= 0 && s.cfg.DarkPairs <= 0 {
		return
	}
	prng := rand.New(rand.NewSource(s.cfg.Seed + 9000))
	addSpec := func(beh Behavior) int {
		i := len(s.fleet)
		s.fleet = append(s.fleet, VesselSpec{
			MMSI:     mmsiBase + uint32(i),
			Name:     fmt.Sprintf("%s-%04d", beh, i),
			Type:     TypeOther,
			Behavior: beh,
			DraftM:   3 + prng.Float64()*3, CruiseKn: 10 + prng.Float64()*3,
			ReportEvery: 80,
		})
		s.itins = append(s.itins, nil)
		return i
	}
	for p := 0; p < s.cfg.RendezvousPairs; p++ {
		spot := s.world.randomOffshorePoint(prng)
		a, b := addSpec(BehaviorRendezvous), addSpec(BehaviorRendezvous)
		s.buildRendezvousPair(prng, a, b, spot)
	}
	for p := 0; p < s.cfg.DarkPairs; p++ {
		spot := s.world.randomOffshorePoint(prng)
		a, b := addSpec(BehaviorDarkPair), addSpec(BehaviorDarkPair)
		s.buildDarkPair(prng, a, b, spot)
	}
}

// buildRendezvousPair scripts two vessels approaching a shared offshore
// spot from opposite sides, holding station within a couple hundred
// meters of each other for about an hour, and parting.
func (s *Simulator) buildRendezvousPair(rng *rand.Rand, ia, ib int, spot geo.Point) {
	bearing := rng.Float64() * 360
	approach := func(i int, brg float64) *itinBuilder {
		spec := &s.fleet[i]
		from := geo.Destination(spot, brg, 15000+rng.Float64()*5000)
		dst := geo.Destination(spot, rng.Float64()*360, 40+rng.Float64()*110)
		b := newItinBuilder(s.cfg.Start.Add(time.Duration(rng.Intn(8))*time.Minute), from)
		b.cruiseTo(dst, spec.CruiseKn, 1, rng)
		return b
	}
	ba := approach(ia, bearing)
	bb := approach(ib, bearing+180)
	meet := ba.t
	if bb.t.After(meet) {
		meet = bb.t
	}
	leave := meet.Add(time.Hour + time.Duration(rng.Intn(20))*time.Minute)
	part := func(i int, b *itinBuilder, brg float64) {
		b.dwell(leave.Sub(b.t))
		b.cruiseTo(geo.Destination(spot, brg, 25000), s.fleet[i].CruiseKn, 1, rng)
		b.dwell(s.cfg.Duration)
		s.itins[i] = b.build()
	}
	part(ia, ba, bearing+30)
	part(ib, bb, bearing+210)
	s.pairTruth = append(s.pairTruth, TruthEvent{
		Kind: TruthRendezvous,
		MMSI: s.fleet[ia].MMSI, MMSI2: s.fleet[ib].MMSI,
		Near: spot, Start: meet, End: leave,
	})
}

// buildDarkPair scripts two vessels that go silent a few km short of a
// shared spot, meet and hold station entirely inside the gap, then
// resume reporting shortly after parting — so their gaps overlap, each
// gap is crossable at plausible speed, and the gap end points sit far
// closer together than the start points.
func (s *Simulator) buildDarkPair(rng *rand.Rand, ia, ib int, spot geo.Point) {
	bearing := rng.Float64() * 360
	type half struct {
		b       *itinBuilder
		gapFrom time.Time
		exitBrg float64
	}
	// Each vessel's own gap must stay well inside the analysis window
	// (1 h in the experiments): beyond it the tracker evicts the silent
	// vessel and its reappearance is a fresh "first" point, not the
	// gapEnd the linking screen needs. Short final approaches and a
	// tight dwell keep the worst-case gap near 50 minutes.
	approach := func(i int, brg, exitBrg float64) *half {
		spec := &s.fleet[i]
		from := geo.Destination(spot, brg, 14000+rng.Float64()*2000)
		cut := geo.Destination(spot, brg, 3000)
		dst := geo.Destination(spot, rng.Float64()*360, 40+rng.Float64()*110)
		b := newItinBuilder(s.cfg.Start.Add(time.Duration(rng.Intn(4))*time.Minute), from)
		b.cruiseTo(cut, spec.CruiseKn, 1, rng)
		gapFrom := b.t.Add(45 * time.Second)
		b.sailTo(dst, spec.CruiseKn)
		return &half{b: b, gapFrom: gapFrom, exitBrg: exitBrg}
	}
	ha := approach(ia, bearing, bearing+90)
	hb := approach(ib, bearing+180, bearing+135)
	meet := ha.b.t
	if hb.b.t.After(meet) {
		meet = hb.b.t
	}
	leave := meet.Add(20*time.Minute + time.Duration(rng.Intn(8))*time.Minute)
	part := func(i int, h *half) time.Time {
		h.b.dwell(leave.Sub(h.b.t))
		resume := geo.Destination(spot, h.exitBrg, 1100+rng.Float64()*200)
		h.b.sailTo(resume, s.fleet[i].CruiseKn)
		gapTo := h.b.t.Add(45 * time.Second)
		h.b.cruiseTo(geo.Destination(spot, h.exitBrg, 28000), s.fleet[i].CruiseKn, 1, rng)
		h.b.dwell(s.cfg.Duration)
		it := h.b.build()
		it.silences = append(it.silences, timespan{Start: h.gapFrom, End: gapTo})
		s.itins[i] = it
		return gapTo
	}
	toA := part(ia, ha)
	toB := part(ib, hb)
	// The truth window is the gap overlap: the interval both vessels were
	// dark simultaneously.
	from := ha.gapFrom
	if hb.gapFrom.After(from) {
		from = hb.gapFrom
	}
	to := toA
	if toB.Before(to) {
		to = toB
	}
	s.pairTruth = append(s.pairTruth, TruthEvent{
		Kind: TruthDarkRendezvous,
		MMSI: s.fleet[ia].MMSI, MMSI2: s.fleet[ib].MMSI,
		Near: spot, Start: from, End: to,
	})
}

// World exposes the static geography.
func (s *Simulator) World() *World { return s.world }

// Fleet exposes the vessel registry.
func (s *Simulator) Fleet() []VesselSpec { return s.fleet }

// Truth returns the scripted ground-truth episodes.
func (s *Simulator) Truth() []TruthEvent {
	s.buildItineraries()
	return s.truth
}

// LoiterSpots returns the rendezvous points of the scripted loitering
// groups. Marine authorities monitoring for suspicious activity would
// designate watch areas around such spots (paper §4.1, Scenario 1).
func (s *Simulator) LoiterSpots() []geo.Point { return s.loiterSpots }

// ScriptedPos returns the noise-free scripted position of a vessel at
// time t — the ground truth that reported fixes jitter around. ok is
// false for unknown vessels.
func (s *Simulator) ScriptedPos(mmsi uint32, t time.Time) (geo.Point, bool) {
	s.buildItineraries()
	i := int(mmsi) - int(mmsiBase)
	if i < 0 || i >= len(s.itins) || s.itins[i] == nil {
		return geo.Point{}, false
	}
	return s.itins[i].pos(t), true
}

// randomPort draws a port.
func (s *Simulator) randomPort(rng *rand.Rand) *Port {
	return &s.world.Ports[rng.Intn(len(s.world.Ports))]
}

// nearestPort returns the port closest to p, so scripted actors start
// near their target and complete their episodes within the run.
func (s *Simulator) nearestPort(p geo.Point) *Port {
	best := &s.world.Ports[0]
	bestD := geo.Haversine(p, best.Center)
	for i := range s.world.Ports[1:] {
		port := &s.world.Ports[i+1]
		if d := geo.Haversine(p, port.Center); d < bestD {
			best, bestD = port, d
		}
	}
	return best
}

// accessibleArea picks one of the few areas of the given set closest to
// any port, so the scripted crossing completes within a short run.
func (s *Simulator) accessibleArea(rng *rand.Rand, areas []Area) Area {
	type scored struct {
		a Area
		d float64
	}
	ranked := make([]scored, len(areas))
	for i, a := range areas {
		c := a.Poly.Centroid()
		ranked[i] = scored{a: a, d: geo.Haversine(c, s.nearestPort(c).Center)}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].d < ranked[j].d })
	k := 4
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[rng.Intn(k)].a
}

// anchorage returns a jittered spot inside a port polygon.
func anchorage(rng *rand.Rand, p *Port) geo.Point {
	return geo.Point{
		Lon: p.Center.Lon + (rng.Float64()*2-1)*portRadiusDeg*0.7,
		Lat: p.Center.Lat + (rng.Float64()*2-1)*portRadiusDeg*0.7,
	}
}

func (s *Simulator) horizon() time.Time { return s.cfg.Start.Add(s.cfg.Duration) }

// buildDocked scripts a vessel that never leaves its anchorage.
func (s *Simulator) buildDocked(rng *rand.Rand, spec *VesselSpec) *itinerary {
	b := newItinBuilder(s.cfg.Start, anchorage(rng, s.randomPort(rng)))
	b.dwell(s.cfg.Duration + time.Hour)
	return b.build()
}

// buildFerry scripts periodic crossings between two ports.
func (s *Simulator) buildFerry(rng *rand.Rand, spec *VesselSpec) *itinerary {
	a := s.randomPort(rng)
	c := s.randomPort(rng)
	for c.Name == a.Name {
		c = s.randomPort(rng)
	}
	b := newItinBuilder(s.cfg.Start, anchorage(rng, a))
	b.dwell(time.Duration(rng.Intn(30)+5) * time.Minute)
	for b.t.Before(s.horizon()) {
		b.cruiseTo(anchorage(rng, c), spec.CruiseKn, 1+rng.Intn(2), rng)
		b.dwell(time.Duration(rng.Intn(25)+20) * time.Minute)
		a, c = c, a
	}
	return b.build()
}

// buildVoyager scripts multi-leg voyages with long port calls.
func (s *Simulator) buildVoyager(rng *rand.Rand, spec *VesselSpec) *itinerary {
	cur := s.randomPort(rng)
	b := newItinBuilder(s.cfg.Start, anchorage(rng, cur))
	b.dwell(time.Duration(rng.Intn(90)) * time.Minute)
	for b.t.Before(s.horizon()) {
		next := s.randomPort(rng)
		for next.Name == cur.Name {
			next = s.randomPort(rng)
		}
		b.cruiseTo(anchorage(rng, next), spec.CruiseKn, 2+rng.Intn(3), rng)
		b.dwell(time.Duration(rng.Intn(180)+60) * time.Minute)
		cur = next
	}
	return b.build()
}

// buildPassing scripts one straight crossing of the region; the vessel
// is present (and reporting) only while on the crossing.
func (s *Simulator) buildPassing(rng *rand.Rand, spec *VesselSpec) *itinerary {
	bounds := s.world.Bounds
	entry := geo.Point{Lon: bounds.MinLon, Lat: bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat)}
	exit := geo.Point{Lon: bounds.MaxLon, Lat: bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat)}
	if rng.Float64() < 0.5 {
		entry, exit = exit, entry
	}
	// Stagger entries across the run.
	lead := time.Duration(rng.Int63n(int64(s.cfg.Duration)*2/3 + 1))
	b := newItinBuilder(s.cfg.Start.Add(lead), entry)
	b.cruiseTo(exit, spec.CruiseKn, 1+rng.Intn(2), rng)
	it := b.build()
	it.present = timespan{Start: s.cfg.Start.Add(lead), End: it.endTime()}
	return it
}

// buildFisher scripts a round trip to a fishing ground with slow
// zigzag trawling. About a third of fishers work inside a forbidden
// fishing area, providing ground truth for illegalFishing.
func (s *Simulator) buildFisher(rng *rand.Rand, spec *VesselSpec, forbidden []Area) *itinerary {
	var ground geo.Point
	var inForbidden *Area
	if len(forbidden) > 0 && rng.Float64() < 0.35 {
		a := forbidden[rng.Intn(len(forbidden))]
		ground = a.Poly.Centroid()
		inForbidden = &a
	} else {
		ground = s.world.randomOffshorePoint(rng)
	}
	// Fishing boats work grounds near their home port.
	home := s.nearestPort(ground)
	b := newItinBuilder(s.cfg.Start, anchorage(rng, home))
	b.dwell(time.Duration(rng.Intn(40)) * time.Minute)
	b.cruiseTo(ground, spec.CruiseKn, 1, rng)
	trawlStart := b.t
	// Trawl: slow zigzag around the ground for 1–3 hours.
	trawlFor := time.Duration(60+rng.Intn(120)) * time.Minute
	heading := rng.Float64() * 360
	for b.t.Before(trawlStart.Add(trawlFor)) {
		heading += (rng.Float64()*2 - 1) * 60
		nxt := geo.Destination(b.pos, heading, 300+rng.Float64()*700)
		b.sailTo(nxt, 2.0+rng.Float64()*1.5)
	}
	trawlEnd := b.t
	b.cruiseTo(anchorage(rng, home), spec.CruiseKn, 1, rng)
	b.dwell(s.cfg.Duration) // moored for the rest of the run
	if inForbidden != nil {
		s.truth = append(s.truth, TruthEvent{
			Kind: TruthFishingInForbidden, MMSI: spec.MMSI,
			AreaID: inForbidden.ID, Near: ground,
			Start: trawlStart, End: trawlEnd,
		})
	}
	return b.build()
}

// buildLoiterer scripts a rendezvous: the vessel is first observed
// under way some 15–25 km from the shared spot, sails there, stops
// together with the rest of the group for a synchronized interval, and
// leaves. Starting at sea keeps arrival times tight so at least four
// vessels are reliably stopped simultaneously — the condition of the
// suspicious-area CE.
func (s *Simulator) buildLoiterer(rng *rand.Rand, spec *VesselSpec, spot geo.Point) *itinerary {
	approachFrom := geo.Destination(spot, rng.Float64()*360, 15000+rng.Float64()*10000)
	// Individual offsets keep the group inside a ~300 m circle.
	mydst := geo.Destination(spot, rng.Float64()*360, rng.Float64()*150)
	b := newItinBuilder(s.cfg.Start.Add(time.Duration(rng.Intn(10))*time.Minute), approachFrom)
	b.cruiseTo(mydst, spec.CruiseKn, 1, rng)
	stopStart := b.t
	// Everyone lingers until a common horizon well past the slowest
	// arrival (~1.5 h in), then departs on its own schedule.
	leave := s.cfg.Start.Add(3*time.Hour + time.Duration(rng.Intn(60))*time.Minute)
	if leave.Before(stopStart.Add(45 * time.Minute)) {
		leave = stopStart.Add(45 * time.Minute)
	}
	b.dwell(leave.Sub(stopStart))
	stopEnd := b.t
	b.cruiseTo(geo.Destination(spot, rng.Float64()*360, 30000), spec.CruiseKn, 1, rng)
	b.dwell(s.cfg.Duration)
	s.truth = append(s.truth, TruthEvent{
		Kind: TruthLoiter, MMSI: spec.MMSI, Near: spot,
		Start: stopStart, End: stopEnd,
	})
	return b.build()
}

// buildSmuggler scripts a voyage routed through a protected area with
// the transmitter switched off during the crossing (paper Scenario 3:
// "vessels with illegal activity ... switch off their transmitters").
func (s *Simulator) buildSmuggler(rng *rand.Rand, spec *VesselSpec, protected []Area) *itinerary {
	if len(protected) == 0 {
		home := s.randomPort(rng)
		dest := s.randomPort(rng)
		for dest.Name == home.Name {
			dest = s.randomPort(rng)
		}
		b := newItinBuilder(s.cfg.Start, anchorage(rng, home))
		b.dwell(time.Duration(rng.Intn(20)+5) * time.Minute)
		b.cruiseTo(anchorage(rng, dest), spec.CruiseKn, 2, rng)
		return b.build()
	}
	area := s.accessibleArea(rng, protected)
	mid := area.Poly.Centroid()
	// The shortcut through the park only pays off near the home port.
	home := s.nearestPort(mid)
	dest := s.randomPort(rng)
	for dest.Name == home.Name {
		dest = s.randomPort(rng)
	}
	b := newItinBuilder(s.cfg.Start, anchorage(rng, home))
	b.dwell(time.Duration(rng.Intn(20)+5) * time.Minute)
	b.cruiseTo(mid, spec.CruiseKn, 1, rng)
	crossT := b.t
	b.cruiseTo(anchorage(rng, dest), spec.CruiseKn, 1, rng)
	b.dwell(s.cfg.Duration)
	it := b.build()
	// Silence from a few minutes before reaching the area until well
	// past it, so the tracker sees a reporting gap positioned at the
	// protected area.
	gapStart := crossT.Add(-90 * time.Second)
	gapEnd := crossT.Add(16 * time.Minute)
	it.silences = append(it.silences, timespan{Start: gapStart, End: gapEnd})
	s.truth = append(s.truth, TruthEvent{
		Kind: TruthGapInProtected, MMSI: spec.MMSI, AreaID: area.ID,
		Near: mid, Start: gapStart, End: gapEnd,
	})
	return it
}

// buildShoalRunner scripts a slow cut across a shallow area, the ground
// truth for dangerousShipping (paper Scenario 4).
func (s *Simulator) buildShoalRunner(rng *rand.Rand, spec *VesselSpec, shallow []Area) *itinerary {
	if len(shallow) == 0 {
		home := s.randomPort(rng)
		dest := s.randomPort(rng)
		for dest.Name == home.Name {
			dest = s.randomPort(rng)
		}
		b := newItinBuilder(s.cfg.Start, anchorage(rng, home))
		b.dwell(time.Duration(rng.Intn(20)+5) * time.Minute)
		b.cruiseTo(anchorage(rng, dest), spec.CruiseKn, 2, rng)
		return b.build()
	}
	area := s.accessibleArea(rng, shallow)
	mid := area.Poly.Centroid()
	home := s.nearestPort(mid)
	dest := s.randomPort(rng)
	for dest.Name == home.Name {
		dest = s.randomPort(rng)
	}
	b := newItinBuilder(s.cfg.Start, anchorage(rng, home))
	b.dwell(time.Duration(rng.Intn(20)+5) * time.Minute)
	b.cruiseTo(mid, spec.CruiseKn, 1, rng)
	slowStart := b.t
	// Creep across the shallows at trawling speed.
	across := geo.Destination(mid, geo.Bearing(b.pos, mid), 1500)
	b.sailTo(across, 2.5)
	slowEnd := b.t
	b.cruiseTo(anchorage(rng, dest), spec.CruiseKn, 1, rng)
	b.dwell(s.cfg.Duration)
	s.truth = append(s.truth, TruthEvent{
		Kind: TruthShallowPass, MMSI: spec.MMSI, AreaID: area.ID,
		Near: mid, Start: slowStart, End: slowEnd,
	})
	return b.build()
}

// Run generates the cleaned positional stream of the whole fleet,
// sorted by timestamp. It applies the configured noise: jitter on every
// fix, occasional outliers, dropped reports, and spontaneous gaps on
// top of scripted silences.
func (s *Simulator) Run() []ais.Fix {
	s.buildItineraries()
	var out []ais.Fix
	horizon := s.horizon()
	for i := range s.fleet {
		spec := &s.fleet[i]
		it := s.itins[i]
		vrng := rand.New(rand.NewSource(s.cfg.Seed + 5000 + int64(i)))

		start := s.cfg.Start
		if it.present.Start.After(start) {
			start = it.present.Start
		}
		end := horizon
		if it.present.End.Before(end) {
			end = it.present.End
		}

		// Spontaneous gaps for this vessel.
		silences := make([]timespan, len(it.silences))
		copy(silences, it.silences)
		if s.cfg.Noise.GapPerHour > 0 {
			hours := end.Sub(start).Hours()
			n := 0
			for h := 0.0; h < hours; h++ {
				if vrng.Float64() < s.cfg.Noise.GapPerHour {
					n++
				}
			}
			for g := 0; g < n; g++ {
				gs := start.Add(time.Duration(vrng.Int63n(int64(end.Sub(start)) + 1)))
				span := s.cfg.Noise.GapMin + time.Duration(vrng.Int63n(int64(s.cfg.Noise.GapMax-s.cfg.Noise.GapMin)+1))
				silences = append(silences, timespan{Start: gs, End: gs.Add(span)})
			}
		}

		t := start.Add(time.Duration(vrng.Int63n(int64(spec.ReportEvery*float64(time.Second)) + 1)))
		var prev geo.Point
		havePrev := false
		for t.Before(end) {
			scripted := it.pos(t)
			// Reporting interval depends on motion: anchored vessels
			// transmit far less often (paper §1).
			moving := havePrev && geo.Haversine(prev, scripted) > 5
			interval := spec.ReportEvery
			if !moving && havePrev {
				// Anchored and slowly moving vessels transmit less
				// frequently (paper §1), but still well within the
				// tracker's gap threshold.
				interval *= 2
			}
			prev, havePrev = scripted, true

			silentNow := false
			for _, sp := range silences {
				if sp.contains(t) {
					silentNow = true
					break
				}
			}
			if !silentNow && vrng.Float64() >= s.cfg.Noise.DropProb {
				p := scripted
				if s.cfg.Noise.JitterMeters > 0 {
					p = geo.Destination(p, vrng.Float64()*360, absGauss(vrng)*s.cfg.Noise.JitterMeters)
				}
				if s.cfg.Noise.OutlierProb > 0 && vrng.Float64() < s.cfg.Noise.OutlierProb {
					p = geo.Destination(p, vrng.Float64()*360, s.cfg.Noise.OutlierMeters*(0.5+vrng.Float64()))
				}
				out = append(out, ais.Fix{MMSI: spec.MMSI, Pos: p, Time: t})
			}
			dt := interval * (0.5 + vrng.Float64())
			t = t.Add(time.Duration(dt * float64(time.Second)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// absGauss returns |N(0,1)| draws.
func absGauss(rng *rand.Rand) float64 {
	g := rng.NormFloat64()
	if g < 0 {
		return -g
	}
	return g
}
