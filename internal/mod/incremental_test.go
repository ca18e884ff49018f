package mod

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/geo"
	"repro/internal/tracker"
)

// refStore is the oracle for the store: the staging area as first
// written, a map of every vessel's staged points, and a Reconstruct that
// visits every staged vessel and examines every staged point from index
// 0 on every call. It shares no state or code with MOD's staging
// layout, so it holds any layout.
type refStore struct {
	ports   []PortArea
	staging map[uint32][]tracker.CriticalPoint
	origin  map[uint32]string
	trips   []*Trip
}

func newRefStore(ports []PortArea) *refStore {
	return &refStore{ports: ports, staging: map[uint32][]tracker.CriticalPoint{}, origin: map[uint32]string{}}
}

func (r *refStore) stage(points []tracker.CriticalPoint) {
	for _, cp := range points {
		r.staging[cp.MMSI] = append(r.staging[cp.MMSI], cp)
	}
}

// portOf returns the port a long-term stop lies in, or "".
func (r *refStore) portOf(cp tracker.CriticalPoint) string {
	if cp.Type != tracker.EventStopStart && cp.Type != tracker.EventStopEnd {
		return ""
	}
	for _, p := range r.ports {
		if p.Poly.Contains(cp.Pos) {
			return p.Name
		}
	}
	return ""
}

func (r *refStore) reconstruct() []*Trip {
	var completed []*Trip
	mmsis := make([]uint32, 0, len(r.staging))
	for mmsi := range r.staging {
		mmsis = append(mmsis, mmsi)
	}
	sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })

	for _, mmsi := range mmsis {
		pts := r.staging[mmsi]
		cursor := 0
		for i, cp := range pts {
			port := r.portOf(cp)
			if port == "" {
				continue
			}
			segment := pts[cursor : i+1]
			trip := &Trip{
				MMSI:   mmsi,
				Origin: r.origin[mmsi],
				Dest:   port,
				Points: append([]tracker.CriticalPoint(nil), segment...),
				Start:  segment[0].Time,
				End:    cp.Time,
			}
			if len(trip.Points) >= 2 && trip.DistanceMeters() >= minTripDistance {
				completed = append(completed, trip)
			}
			r.origin[mmsi] = port
			cursor = i
		}
		r.staging[mmsi] = append(pts[:0:0], pts[cursor:]...)
	}
	return completed
}

func (r *refStore) load(trips []*Trip) { r.trips = append(r.trips, trips...) }

func (r *refStore) stagedCount() int {
	n := 0
	for _, pts := range r.staging {
		n += len(pts)
	}
	return n
}

// positionAt is PositionAt over the oracle's contents: the vessel's
// archived trips in load order, then its staged points.
func (r *refStore) positionAt(mmsi uint32, at time.Time) (geo.Point, bool) {
	for _, trip := range r.trips {
		if trip.MMSI != mmsi || at.Before(trip.Start) || at.After(trip.End) {
			continue
		}
		if p, ok := tracker.Synopsis(trip.Points).At(at); ok {
			return p, true
		}
	}
	syn := tracker.Synopsis(r.staging[mmsi])
	if len(syn) == 0 || at.Before(syn[0].Time) || at.After(syn[len(syn)-1].Time) {
		return geo.Point{}, false
	}
	return syn.At(at)
}

func (r *refStore) contents() contents {
	c := contents{Staging: map[uint32][]tracker.CriticalPoint{}, Origin: map[uint32]string{}}
	for mmsi, pts := range r.staging {
		if len(pts) > 0 {
			c.Staging[mmsi] = append([]tracker.CriticalPoint(nil), pts...)
		}
	}
	for mmsi, o := range r.origin {
		c.Origin[mmsi] = o
	}
	c.Trips = derefTrips(r.trips)
	return c
}

// streamPorts is testPorts plus a port whose centre is 1.8 km from
// Piraeus', so a hop between two distinct ports can fall short of
// minTripDistance.
func streamPorts() []PortArea {
	lon, lat := 23.6505, 37.94
	return append(testPorts(), PortArea{Name: "Keratsini", Poly: geo.MustPolygon([]geo.Point{
		{Lon: lon - 0.01, Lat: lat - 0.01},
		{Lon: lon + 0.01, Lat: lat - 0.01},
		{Lon: lon + 0.01, Lat: lat + 0.01},
		{Lon: lon - 0.01, Lat: lat + 0.01},
	})})
}

// randomStream scripts a fleet's delta stream, merged in time order:
// vessels that start docked, arrive mid-stream or end docked, dock with
// back-to-back stop-start/stop-end points in one port, hop between the
// two adjacent ports, stop at sea, or never dock at all. Some legs end in
// a burst of stops seconds apart, at sea and in port mixed, so one slide
// often stages several stops of one vessel, and some only stop at sea,
// so a vessel can stage stops that close nothing.
func randomStream(rng *rand.Rand, vessels int) []tracker.CriticalPoint {
	docks := []geo.Point{{Lon: 23.63, Lat: 37.94}, {Lon: 25.14, Lat: 35.345}, {Lon: 23.6505, Lat: 37.94}}
	sea := func() geo.Point {
		return geo.Point{Lon: 23.9 + rng.Float64(), Lat: 36 + rng.Float64()}
	}
	moving := []tracker.EventType{tracker.EventTurn, tracker.EventSpeedChange,
		tracker.EventGapStart, tracker.EventGapEnd, tracker.EventSlowStart, tracker.EventSlowEnd}
	var all []tracker.CriticalPoint
	for v := 0; v < vessels; v++ {
		mmsi := uint32(1000 + v)
		neverDocks := v%5 == 4
		at := time.Duration(rng.Intn(3600)) * time.Second
		next := func(maxStep int) {
			at += time.Duration(1+rng.Intn(maxStep)) * time.Second
		}
		emit := func(pos geo.Point, et tracker.EventType) {
			all = append(all, tracker.CriticalPoint{MMSI: mmsi, Pos: pos, Time: t0.Add(at), Type: et})
			next(1800)
		}
		if !neverDocks && rng.Intn(2) == 0 {
			emit(docks[rng.Intn(len(docks))], tracker.EventStopEnd) // docked at the start
		} else {
			emit(sea(), tracker.EventFirst)
		}
		for legs := 2 + rng.Intn(6); legs > 0; legs-- {
			for n := rng.Intn(6); n > 0; n-- {
				emit(sea(), moving[rng.Intn(len(moving))])
			}
			switch {
			case neverDocks || rng.Intn(6) == 0:
				// A long-term stop outside every port closes nothing.
				p := sea()
				emit(p, tracker.EventStopStart)
				emit(p, tracker.EventStopEnd)
			case rng.Intn(4) == 0:
				// A burst of stops seconds apart, at sea and at the quays.
				for n := 2 + rng.Intn(4); n > 0; n-- {
					p := sea()
					if rng.Intn(2) == 0 {
						p = docks[rng.Intn(len(docks))]
					}
					et := tracker.EventStopStart
					if rng.Intn(2) == 0 {
						et = tracker.EventStopEnd
					}
					all = append(all, tracker.CriticalPoint{MMSI: mmsi, Pos: p, Time: t0.Add(at), Type: et})
					next(30)
				}
			default:
				d := docks[rng.Intn(len(docks))]
				emit(d, tracker.EventStopStart)
				if legs > 1 || rng.Intn(2) == 0 { // else: ends docked
					emit(d, tracker.EventStopEnd)
				}
				if rng.Intn(3) == 0 {
					// Straight to the neighbouring quay, no point between.
					emit(docks[rng.Intn(len(docks))], tracker.EventStopStart)
				}
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time.Before(all[j].Time) })
	return all
}

// saveRestore returns a fresh store restored from m's snapshot.
func saveRestore(t testing.TB, m *MOD) *MOD {
	t.Helper()
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	out := New(m.ports)
	if err := out.RestoreSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return out
}

// contents is everything a snapshot carries, in comparable form.
type contents struct {
	Staging map[uint32][]tracker.CriticalPoint
	Origin  map[uint32]string
	Trips   []Trip
}

// contentsOf reads a store's contents off its snapshot's wire type, so
// the comparison holds whatever the store's layout.
func contentsOf(t testing.TB, m *MOD) contents {
	t.Helper()
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	payload, _, err := durable.ReadFrame(&buf, snapshotMagic, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	c := contents{Staging: map[uint32][]tracker.CriticalPoint{}, Origin: map[uint32]string{}, Trips: snap.Trips}
	for mmsi, pts := range snap.Staging {
		if len(pts) > 0 {
			c.Staging[mmsi] = pts
		}
	}
	for mmsi, o := range snap.Origin {
		c.Origin[mmsi] = o
	}
	return c
}

func derefTrips(trips []*Trip) []Trip {
	var out []Trip
	for _, tr := range trips {
		out = append(out, *tr)
	}
	return out
}

// driveAgainstOracle feeds a random fleet's stream to the store and to
// the full-scan oracle in the same random slides: reconstruction
// deferred for random runs of slides, as DegradeDeferArchival does, and
// the store replaced by a snapshot round trip at a random slide. It
// requires the same trips in the same order from every call, the same
// staging area, origins and snapshot contents and staged count at every
// slide, and the same PositionAt answers at random times. It returns the
// number of trips completed.
func driveAgainstOracle(t testing.TB, seed int64, vessels int) int {
	rng := rand.New(rand.NewSource(seed))
	stream := randomStream(rng, vessels)
	if len(stream) == 0 {
		return 0
	}
	first, last := stream[0].Time, stream[len(stream)-1].Time
	m, oracle := New(streamPorts()), newRefStore(streamPorts())
	restoreAt := rng.Intn(40)
	deferred, trips := 0, 0
	for slide := 0; len(stream) > 0; slide++ {
		n := min(1+rng.Intn(30), len(stream))
		m.Stage(stream[:n])
		oracle.stage(stream[:n])
		stream = stream[n:]
		if slide == restoreAt {
			m = saveRestore(t, m)
		}
		if deferred == 0 && rng.Intn(4) == 0 {
			deferred = 1 + rng.Intn(5)
		}
		if deferred > 0 && len(stream) > 0 {
			deferred--
		} else {
			got, want := m.Reconstruct(), oracle.reconstruct()
			if !reflect.DeepEqual(derefTrips(got), derefTrips(want)) {
				t.Fatalf("seed %d slide %d: trips differ\n got %v\nwant %v", seed, slide, got, want)
			}
			trips += len(got)
			m.Load(got)
			oracle.load(want)
		}
		if got, want := contentsOf(t, m), oracle.contents(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d slide %d: store contents differ from the oracle's", seed, slide)
		}
		if got, want := m.StagedCount(), oracle.stagedCount(); got != want {
			t.Fatalf("seed %d slide %d: StagedCount = %d, staging holds %d", seed, slide, got, want)
		}
		for q := 0; q < 4; q++ {
			mmsi := uint32(1000 + rng.Intn(vessels))
			at := first.Add(time.Duration(rng.Int63n(int64(last.Sub(first)) + 1)))
			gp, gok := m.PositionAt(mmsi, at)
			wp, wok := oracle.positionAt(mmsi, at)
			if gp != wp || gok != wok {
				t.Fatalf("seed %d slide %d: PositionAt(%d, %v) = %v %v, want %v %v", seed, slide, mmsi, at, gp, gok, wp, wok)
			}
		}
	}
	if got, want := contentsOf(t, saveRestore(t, m)), oracle.contents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: snapshot contents differ from the oracle's", seed)
	}
	return trips
}

// TestReconstructMatchesFullScanOracle holds the store to the full-scan
// oracle on 40 random fleets.
func TestReconstructMatchesFullScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			if driveAgainstOracle(t, seed, 25) == 0 {
				t.Fatal("stream completed no trip; the comparison is vacuous")
			}
		})
	}
}

// FuzzReconstruct holds the store to the full-scan oracle on fleets the
// fuzzer picks by seed and size. Plain `go test` runs only the seeds.
func FuzzReconstruct(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(25))
	}
	f.Add(int64(99), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, vessels uint8) {
		driveAgainstOracle(t, seed, 1+int(vessels%40))
	})
}

// TestReconstructScansOnlyNewPoints pins the cost model: one Reconstruct
// examines the points staged since the previous one, however many are
// staged — and everything staged after a restore, where the scan
// position starts over.
func TestReconstructScansOnlyNewPoints(t *testing.T) {
	m := New(testPorts())
	var open []tracker.CriticalPoint
	for v := uint32(0); v < 50; v++ {
		for k := 0; k < 20; k++ {
			open = append(open, cp(100+v, 24+float64(k)*0.01, 36.5, time.Duration(k)*time.Minute, tracker.EventTurn))
		}
	}
	m.Stage(open)
	m.Reconstruct()
	if got := m.ScannedPoints(); got != len(open) {
		t.Fatalf("first scan examined %d points, want %d", got, len(open))
	}
	pending := 0
	for slide := 1; slide <= 5; slide++ {
		m.Stage([]tracker.CriticalPoint{
			cp(100, 24.5, 36.5, time.Duration(slide)*time.Hour, tracker.EventTurn),
			cp(107, 24.5, 36.5, time.Duration(slide)*time.Hour, tracker.EventSpeedChange),
		})
		pending += 2
		if slide == 3 {
			continue // deferred: the next scan covers both slides
		}
		before := m.ScannedPoints()
		m.Reconstruct()
		if got := m.ScannedPoints() - before; got != pending {
			t.Fatalf("slide %d: examined %d points with %d staged, want %d", slide, got, m.StagedCount(), pending)
		}
		pending = 0
	}
	m.Reconstruct() // nothing staged since: nothing to examine
	if got, want := m.ScannedPoints(), len(open)+10; got != want {
		t.Fatalf("scanned %d points in all, want %d", got, want)
	}

	r := saveRestore(t, m)
	r.Reconstruct()
	if got, want := r.ScannedPoints(), r.StagedCount(); got != want {
		t.Fatalf("first scan after a restore examined %d points, want all %d staged", got, want)
	}
}
