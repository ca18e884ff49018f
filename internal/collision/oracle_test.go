package collision

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/geo"
)

// encountersRequery is Encounters as it was before the pair loop went
// linear: each lower-index candidate is settled by re-running that
// candidate's whole index query and searching the result, and the
// output is ordered by sort.Slice. It is kept as the differential
// oracle — same evictions, same projection, same candidate order — so
// the production query must match it element for element, ties in
// (TCPA, A) included.
func encountersRequery(d *Detector, now time.Time) []Encounter {
	p := d.params
	for mmsi, k := range d.vessels {
		if now.Sub(k.at) > p.Stale {
			delete(d.vessels, mmsi)
			d.evicted++
		}
	}
	mmsis := make([]uint32, 0, len(d.vessels))
	for mmsi, k := range d.vessels {
		if k.haveVel {
			mmsis = append(mmsis, mmsi)
		}
	}
	slices.Sort(mmsis)
	var ref geo.Point
	var states []planar
	for i, mmsi := range mmsis {
		k := d.vessels[mmsi]
		if i == 0 {
			ref = k.pos
		}
		ms := geo.KnotsToMetersPerSecond(k.vel.SpeedKnots)
		brng := k.vel.HeadingDeg * math.Pi / 180
		pos := geo.Destination(k.pos, k.vel.HeadingDeg, ms*now.Sub(k.at).Seconds())
		x, y := planarOffset(ref, pos)
		states = append(states, planar{
			mmsi: mmsi, geo: pos, x: x, y: y,
			vx: ms * math.Sin(brng), vy: ms * math.Cos(brng), speedKn: k.vel.SpeedKnots,
		})
	}
	reach := 2*geo.KnotsToMetersPerSecond(p.MaxSpeedKnots)*p.Horizon.Seconds() + p.DistanceMeters
	idx := geo.NewPointIndex(reach / 111_000)
	for i, s := range states {
		idx.Add(int32(i), s.geo)
	}
	seenFrom := func(from, to int) bool {
		for _, c := range idx.CandidatesAppend(nil, states[from].geo, reach) {
			if int(c) == to {
				return true
			}
		}
		return false
	}
	var out []Encounter
	for i := range states {
		for _, jj := range idx.CandidatesAppend(nil, states[i].geo, reach) {
			j := int(jj)
			if j == i || j < i && seenFrom(j, i) {
				continue
			}
			a, b := states[min(i, j)], states[max(i, j)]
			if enc, ok := cpa(a, b, p); ok {
				enc.A, enc.B = a.mmsi, b.mmsi
				enc.Where = planarToGeo(ref, enc.Where.Lon, enc.Where.Lat)
				out = append(out, enc)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TCPA != out[j].TCPA {
			return out[i].TCPA < out[j].TCPA
		}
		return out[i].A < out[j].A
	})
	return out
}

// cpa is closestApproach by value, the form the oracles and the
// threshold test were written against.
func cpa(a, b planar, p Params) (Encounter, bool) { return closestApproach(&a, &b, &p) }

// clone returns an independent detector in d's exact state.
func clone(d *Detector) *Detector {
	c := New(d.params)
	c.Restore(d.Snapshot())
	return c
}

// The linear pair loop must reproduce the re-query implementation
// element for element, in order, wherever the index scan is awkward:
// a cold start with the whole fleet live at once, a steady state in
// which vessels move, go silent and are evicted between queries, rows
// straddling the equator, high latitudes where the scan is visibly
// asymmetric, and vessels parked exactly on cell edges.
func TestEncountersMatchRequeryOracle(t *testing.T) {
	type fixture struct {
		name             string
		vessels          int
		lon0, lat0       float64
		lonSpan, latSpan float64
		steps            int
	}
	fixtures := []fixture{
		{"cold-start-1500", 1500, 22, 35, 6, 5, 1},
		{"steady-state", 300, 22, 35, 4, 4, 12},
		{"equator", 300, -2, -2, 4, 4, 3},
		{"north-60", 300, 5, 60.5, 12, 9, 3},
		{"south-60", 300, -70, -71, 12, 9, 3},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(fx.name))))
			d := New(Params{})
			reach := 2*geo.KnotsToMetersPerSecond(d.params.MaxSpeedKnots)*d.params.Horizon.Seconds() + d.params.DistanceMeters
			cellDeg := reach / 111_000
			pos := make([]geo.Point, fx.vessels)
			for i := range pos {
				pos[i] = geo.Point{Lon: fx.lon0 + rng.Float64()*fx.lonSpan, Lat: fx.lat0 + rng.Float64()*fx.latSpan}
				if i%5 == 0 { // exactly on a cell corner of the detector's grid
					pos[i].Lon = math.Round(pos[i].Lon/cellDeg) * cellDeg
					pos[i].Lat = math.Round(pos[i].Lat/cellDeg) * cellDeg
				}
			}
			encounters, ties, rehandled := 0, 0, 0
			for step := 0; step < fx.steps; step++ {
				now := t0.Add(time.Duration(step) * 5 * time.Minute)
				for i := range pos {
					// From the second step on a third of the fleet goes
					// silent each step, so stale vessels age out mid-run.
					if step > 0 && (i+step)%3 == 0 {
						continue
					}
					heading, speed := rng.Float64()*360, rng.Float64()*18
					if i%4 == 0 {
						speed = 0 // moored: TCPA clamps to 0, ties in the sort key
					}
					d.ObservePoint(uint32(1000+i), pos[i], now, speed, heading)
					pos[i] = geo.Destination(pos[i], heading, geo.KnotsToMetersPerSecond(speed)*300)
				}
				want := encountersRequery(clone(d), now)
				got := d.Encounters(now)
				if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
					t.Fatalf("step %d: %d encounters, oracle %d; first difference at %s",
						step, len(got), len(want), firstDiff(got, want))
				}
				encounters += len(got)
				rehandled += oneWayPairs(d, reach)
				for k := 1; k < len(got); k++ {
					if got[k].TCPA == got[k-1].TCPA && got[k].A == got[k-1].A {
						ties++
					}
				}
			}
			if encounters == 0 {
				t.Error("fixture produced no encounters")
			}
			if fx.name == "north-60" && rehandled == 0 {
				t.Error("fixture produced no pair only the higher index sees; the asymmetric branch is untested")
			}
			if fx.name == "cold-start-1500" && ties == 0 {
				t.Error("fixture produced no (TCPA, A) ties; the sort's tie order is untested")
			}
		})
	}
}

// oneWayPairs counts, over the last query's states, the pairs the
// higher index's scan reaches but the lower's does not — the ones
// Encounters must take from the higher side.
func oneWayPairs(d *Detector, reach float64) int {
	cand := make([][]int32, len(d.states))
	for i, s := range d.states {
		cand[i] = d.idx.CandidatesAppend(nil, s.geo, reach)
	}
	n := 0
	for i := range d.states {
		for _, j := range cand[i] {
			if int(j) < i && !slices.Contains(cand[j], int32(i)) {
				n++
			}
		}
	}
	return n
}

func firstDiff(got, want []Encounter) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("[%d]: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("[%d]: lengths differ", min(len(got), len(want)))
}
