package mod

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/tracker"
)

// reconstructFullScan is the oracle for Reconstruct: the scan it
// replaced, which visits every staged vessel and examines every staged
// point from index 0 on every call. It reads none of the store's scan
// bookkeeping.
func reconstructFullScan(m *MOD) []*Trip {
	var completed []*Trip
	mmsis := make([]uint32, 0, len(m.staging))
	for mmsi := range m.staging {
		mmsis = append(mmsis, mmsi)
	}
	sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })

	for _, mmsi := range mmsis {
		pts := m.staging[mmsi]
		cursor := 0
		for i, cp := range pts {
			port := m.portOfStop(&cp)
			if port == "" {
				continue
			}
			segment := pts[cursor : i+1]
			trip := &Trip{
				MMSI:   mmsi,
				Origin: m.origin[mmsi],
				Dest:   port,
				Points: append([]tracker.CriticalPoint(nil), segment...),
				Start:  segment[0].Time,
				End:    cp.Time,
			}
			if len(trip.Points) >= 2 && trip.DistanceMeters() >= minTripDistance {
				completed = append(completed, trip)
			}
			m.origin[mmsi] = port
			cursor = i
		}
		if cursor > 0 {
			m.staging[mmsi] = append(pts[:0:0], pts[cursor:]...)
		}
	}
	return completed
}

// walkStaged counts staged points the slow way.
func walkStaged(m *MOD) int {
	n := 0
	for _, pts := range m.staging {
		n += len(pts)
	}
	return n
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
// two adjacent ports, stop at sea, or never dock at all.
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
		emit := func(pos geo.Point, et tracker.EventType) {
			all = append(all, tracker.CriticalPoint{MMSI: mmsi, Pos: pos, Time: t0.Add(at), Type: et})
			at += time.Duration(1+rng.Intn(1800)) * time.Second
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
func saveRestore(t *testing.T, m *MOD) *MOD {
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

func contentsOf(m *MOD) contents {
	c := contents{Staging: map[uint32][]tracker.CriticalPoint{}, Origin: map[uint32]string{}}
	for mmsi, pts := range m.staging {
		if len(pts) > 0 {
			c.Staging[mmsi] = append([]tracker.CriticalPoint(nil), pts...)
		}
	}
	for mmsi, o := range m.origin {
		c.Origin[mmsi] = o
	}
	for _, tr := range m.trips {
		c.Trips = append(c.Trips, *tr)
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

// TestReconstructMatchesFullScanOracle drives the incremental
// Reconstruct and the full-scan oracle with the same random slides —
// reconstruction deferred for random runs of slides, as
// DegradeDeferArchival does, and the incremental store replaced by a
// snapshot round trip at a random slide — and requires the same trips
// in the same order from every call, and the same staging area, origins
// and snapshot contents at every slide.
func TestReconstructMatchesFullScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			stream := randomStream(rng, 25)
			inc, oracle := New(streamPorts()), New(streamPorts())
			restoreAt := rng.Intn(40)
			deferred, trips := 0, 0
			for slide := 0; len(stream) > 0; slide++ {
				n := min(1+rng.Intn(30), len(stream))
				inc.Stage(stream[:n])
				oracle.Stage(stream[:n])
				stream = stream[n:]
				if slide == restoreAt {
					inc = saveRestore(t, inc)
				}
				if deferred == 0 && rng.Intn(4) == 0 {
					deferred = 1 + rng.Intn(5)
				}
				if deferred > 0 && len(stream) > 0 {
					deferred--
				} else {
					got, want := inc.Reconstruct(), reconstructFullScan(oracle)
					if !reflect.DeepEqual(derefTrips(got), derefTrips(want)) {
						t.Fatalf("slide %d: trips differ\n got %v\nwant %v", slide, got, want)
					}
					trips += len(got)
					inc.Load(got)
					oracle.Load(want)
				}
				if got, want := contentsOf(inc), contentsOf(oracle); !reflect.DeepEqual(got, want) {
					t.Fatalf("slide %d: store contents differ from the oracle's", slide)
				}
				if got, want := inc.StagedCount(), walkStaged(oracle); got != want {
					t.Fatalf("slide %d: StagedCount = %d, staging holds %d", slide, got, want)
				}
			}
			if got, want := contentsOf(saveRestore(t, inc)), contentsOf(saveRestore(t, oracle)); !reflect.DeepEqual(got, want) {
				t.Fatal("snapshot contents differ from the oracle's")
			}
			if trips == 0 {
				t.Fatal("stream completed no trip; the comparison is vacuous")
			}
		})
	}
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
