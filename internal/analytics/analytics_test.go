package analytics

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/maritime"
	"repro/internal/tracker"
)

var t0 = time.Date(2009, 6, 1, 12, 0, 0, 0, time.UTC)

func cp(mmsi uint32, pos geo.Point, at time.Time, typ tracker.EventType, speedKn, headingDeg float64) tracker.CriticalPoint {
	return tracker.CriticalPoint{
		MMSI: mmsi, Pos: pos, Time: at, Type: typ,
		SpeedKn: speedKn, HeadingDeg: headingDeg,
	}
}

func TestRendezvousStreakFiresOncePerEpisode(t *testing.T) {
	tier := New(Config{}, nil) // MinSlides defaults to 3
	base := geo.Point{Lon: 24.5, Lat: 37.5}
	near := geo.Destination(base, 90, 200) // within the 400 m default

	// Slide 1: both vessels enter a stop 200 m apart. Streak = 1.
	got := tier.Slide(t0, []tracker.CriticalPoint{
		cp(101, base, t0, tracker.EventStopStart, 0.3, 0),
		cp(102, near, t0, tracker.EventStopStart, 0.2, 0),
	})
	if len(got) != 0 {
		t.Fatalf("slide 1 alerts = %v, want none before MinSlides", got)
	}
	// Slide 2: still together (no fresh points needed). Streak = 2.
	if got = tier.Slide(t0.Add(time.Minute), nil); len(got) != 0 {
		t.Fatalf("slide 2 alerts = %v, want none before MinSlides", got)
	}
	// Slide 3: streak reaches MinSlides — the episode fires once.
	q3 := t0.Add(2 * time.Minute)
	got = tier.Slide(q3, nil)
	want := []maritime.Alert{{CE: maritime.CERendezvous, Time: q3, Vessel: 101, Vessel2: 102}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slide 3 alerts = %v, want %v", got, want)
	}
	// Slide 4: the pair is still together; the episode must not re-fire.
	if got = tier.Slide(t0.Add(3*time.Minute), nil); len(got) != 0 {
		t.Fatalf("slide 4 alerts = %v, want no repeat within the episode", got)
	}

	// Vessel 102 gets under way: the pair separates and the streak resets.
	q5 := t0.Add(4 * time.Minute)
	tier.Slide(q5, []tracker.CriticalPoint{
		cp(102, geo.Destination(base, 90, 3000), q5, tracker.EventStopEnd, 8, 90),
	})
	// It comes back and stops again: a fresh episode needs MinSlides anew.
	q6 := t0.Add(5 * time.Minute)
	tier.Slide(q6, []tracker.CriticalPoint{
		cp(102, near, q6, tracker.EventStopStart, 0.4, 0),
	})
	tier.Slide(t0.Add(6*time.Minute), nil)
	q8 := t0.Add(7 * time.Minute)
	got = tier.Slide(q8, nil)
	want = []maritime.Alert{{CE: maritime.CERendezvous, Time: q8, Vessel: 101, Vessel2: 102}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second episode alerts = %v, want %v", got, want)
	}
	if n := tier.Stats().PairAlerts; n != 2 {
		t.Errorf("PairAlerts = %d, want 2", n)
	}
}

func TestRendezvousSuppressedNearPort(t *testing.T) {
	base := geo.Point{Lon: 24.5, Lat: 37.5}
	harbor := geo.Destination(base, 0, 1000) // within the 2 km standoff
	port := geo.MustPolygon([]geo.Point{
		{Lon: harbor.Lon - 0.01, Lat: harbor.Lat - 0.01},
		{Lon: harbor.Lon + 0.01, Lat: harbor.Lat - 0.01},
		{Lon: harbor.Lon + 0.01, Lat: harbor.Lat + 0.01},
		{Lon: harbor.Lon - 0.01, Lat: harbor.Lat + 0.01},
	})
	tier := New(Config{}, []*geo.Polygon{port})
	near := geo.Destination(base, 90, 200)
	tier.Slide(t0, []tracker.CriticalPoint{
		cp(101, base, t0, tracker.EventStopStart, 0.3, 0),
		cp(102, near, t0, tracker.EventStopStart, 0.2, 0),
	})
	for i := 1; i <= 5; i++ {
		if got := tier.Slide(t0.Add(time.Duration(i)*time.Minute), nil); len(got) != 0 {
			t.Fatalf("slide %d: in-harbor pair alarmed: %v", i, got)
		}
	}
}

func TestRendezvousRequiresLoitering(t *testing.T) {
	tier := New(Config{}, nil)
	base := geo.Point{Lon: 24.5, Lat: 37.5}
	near := geo.Destination(base, 90, 200)
	// Close together, but sailing (no stop/slow episode): never a pair.
	for i := 0; i <= 5; i++ {
		q := t0.Add(time.Duration(i) * time.Minute)
		got := tier.Slide(q, []tracker.CriticalPoint{
			cp(101, base, q, tracker.EventSpeedChange, 12, 90),
			cp(102, near, q, tracker.EventSpeedChange, 12, 90),
		})
		if len(got) != 0 {
			t.Fatalf("slide %d: moving pair alarmed: %v", i, got)
		}
	}
}

func TestDarkGapLinking(t *testing.T) {
	tier := New(Config{}, nil)
	spot := geo.Point{Lon: 24.8, Lat: 37.2}
	aStart := geo.Destination(spot, 270, 6000)
	bStart := geo.Destination(spot, 90, 6000)
	aEnd := geo.Destination(spot, 0, 400)
	bEnd := geo.Destination(spot, 180, 400)

	// Both vessels go dark a couple of minutes apart, 12 km from each
	// other, and resurface 40 minutes later 800 m apart at the spot:
	// overlapping gaps, implied speeds ≈ 5 kn, endpoints converged.
	tier.Slide(t0, []tracker.CriticalPoint{
		cp(201, aStart, t0, tracker.EventGapStart, 8, 90),
		cp(202, bStart, t0.Add(2*time.Minute), tracker.EventGapStart, 8, 270),
	})
	q2 := t0.Add(45 * time.Minute)
	aBack := t0.Add(40 * time.Minute)
	bBack := t0.Add(42 * time.Minute)
	got := tier.Slide(q2, []tracker.CriticalPoint{
		cp(201, aEnd, aBack, tracker.EventGapEnd, 7, 90),
		cp(202, bEnd, bBack, tracker.EventGapEnd, 7, 270),
	})
	want := []maritime.Alert{{CE: maritime.CEDarkRendezvous, Time: bBack, Vessel: 201, Vessel2: 202}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alerts = %v, want %v", got, want)
	}
}

func TestDarkGapLinkingRejectsImplausible(t *testing.T) {
	spot := geo.Point{Lon: 24.8, Lat: 37.2}
	cases := []struct {
		name           string
		bGapStart      time.Time
		bEnd           geo.Point
		bStartDistance float64
	}{
		// Gap B opens after A closed: no temporal overlap.
		{"no-overlap", t0.Add(41 * time.Minute), geo.Destination(spot, 180, 400), 6000},
		// Gap B's endpoints are 60 km apart in 40 min: ≈ 48 kn implied.
		{"teleport", t0, geo.Destination(spot, 180, 400), 60000},
		// Gap B ends 8 km from A's end: beyond ConvergeMeters.
		{"diverged", t0, geo.Destination(spot, 180, 8000), 6000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tier := New(Config{}, nil)
			aStart := geo.Destination(spot, 270, 6000)
			bStart := geo.Destination(spot, 90, tc.bStartDistance)
			tier.Slide(t0, []tracker.CriticalPoint{
				cp(201, aStart, t0, tracker.EventGapStart, 8, 90),
				cp(202, bStart, tc.bGapStart, tracker.EventGapStart, 8, 270),
			})
			got := tier.Slide(t0.Add(45*time.Minute), []tracker.CriticalPoint{
				cp(201, geo.Destination(spot, 0, 400), t0.Add(40*time.Minute), tracker.EventGapEnd, 7, 90),
				cp(202, tc.bEnd, t0.Add(42*time.Minute), tracker.EventGapEnd, 7, 270),
			})
			if len(got) != 0 {
				t.Fatalf("implausible gap pair linked: %v", got)
			}
		})
	}
}

func TestCollisionScreenAlarmsOncePerConflict(t *testing.T) {
	tier := New(Config{EnableCollision: true}, nil)
	mid := geo.Point{Lon: 24.5, Lat: 37.5}

	converging := func(q time.Time) []tracker.CriticalPoint {
		return []tracker.CriticalPoint{
			cp(301, geo.Destination(mid, 270, 4000), q, tracker.EventSpeedChange, 12, 90),
			cp(302, geo.Destination(mid, 90, 4000), q, tracker.EventSpeedChange, 12, 270),
		}
	}
	got := tier.Slide(t0, converging(t0))
	want := []maritime.Alert{{CE: maritime.CECollisionCourse, Time: t0, Vessel: 301, Vessel2: 302}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first slide alerts = %v, want %v", got, want)
	}
	// Still in conflict next slide: no duplicate alarm.
	if got = tier.Slide(t0.Add(30*time.Second), nil); len(got) != 0 {
		t.Fatalf("persisting conflict re-alarmed: %v", got)
	}
	// The pair turns away: conflict ends.
	q3 := t0.Add(time.Minute)
	got = tier.Slide(q3, []tracker.CriticalPoint{
		cp(301, geo.Destination(mid, 270, 3500), q3, tracker.EventSpeedChange, 12, 270),
		cp(302, geo.Destination(mid, 90, 3500), q3, tracker.EventSpeedChange, 12, 90),
	})
	if len(got) != 0 {
		t.Fatalf("diverging pair alarmed: %v", got)
	}
	// They converge again: a new conflict, a new alarm.
	q4 := t0.Add(2 * time.Minute)
	got = tier.Slide(q4, converging(q4))
	want = []maritime.Alert{{CE: maritime.CECollisionCourse, Time: q4, Vessel: 301, Vessel2: 302}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("renewed conflict alerts = %v, want %v", got, want)
	}
}

func TestSlideInputOrderIrrelevant(t *testing.T) {
	// The coordinator hands worker-concatenated points, the single
	// process shard-merged ones; any within-slide permutation must give
	// identical alerts.
	mkPoints := func(q time.Time) []tracker.CriticalPoint {
		mid := geo.Point{Lon: 24.5, Lat: 37.5}
		return []tracker.CriticalPoint{
			cp(301, geo.Destination(mid, 270, 4000), q, tracker.EventSpeedChange, 12, 90),
			cp(302, geo.Destination(mid, 90, 4000), q, tracker.EventSpeedChange, 12, 270),
			cp(101, geo.Destination(mid, 0, 9000), q, tracker.EventStopStart, 0.3, 0),
			cp(102, geo.Destination(geo.Destination(mid, 0, 9000), 90, 150), q, tracker.EventStopStart, 0.2, 0),
		}
	}
	run := func(perm []int) [][]maritime.Alert {
		tier := New(Config{EnableCollision: true, Rendezvous: RendezvousParams{MinSlides: 2}}, nil)
		var out [][]maritime.Alert
		for i := 0; i < 3; i++ {
			q := t0.Add(time.Duration(i) * time.Minute)
			pts := mkPoints(q)
			shuffled := make([]tracker.CriticalPoint, len(pts))
			for to, from := range perm {
				shuffled[to] = pts[from]
			}
			out = append(out, tier.Slide(q, shuffled))
		}
		return out
	}
	want := run([]int{0, 1, 2, 3})
	for _, perm := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := run(perm); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %v changed the alerts:\n got %v\nwant %v", perm, got, want)
		}
	}
}

func TestSnapshotRoundtripAndGob(t *testing.T) {
	cfg := Config{EnableCollision: true}
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	seedSlides := func(tier *Tier) {
		tier.Slide(t0, []tracker.CriticalPoint{
			cp(101, geo.Destination(mid, 0, 9000), t0, tracker.EventStopStart, 0.3, 0),
			cp(102, geo.Destination(geo.Destination(mid, 0, 9000), 90, 150), t0, tracker.EventStopStart, 0.2, 0),
			cp(201, geo.Destination(mid, 270, 6000), t0, tracker.EventGapStart, 8, 90),
			cp(301, geo.Destination(mid, 270, 4000), t0, tracker.EventSpeedChange, 12, 90),
			cp(302, geo.Destination(mid, 90, 4000), t0, tracker.EventSpeedChange, 12, 270),
		})
		tier.Slide(t0.Add(time.Minute), []tracker.CriticalPoint{
			cp(201, geo.Destination(mid, 270, 2000), t0.Add(50*time.Second), tracker.EventGapEnd, 7, 90),
		})
	}
	orig := New(cfg, nil)
	seedSlides(orig)

	// Gob-roundtrip the snapshot: the checkpoint and manifest paths
	// serialize it with gob, so it must encode and decode faithfully.
	snap := orig.Snapshot()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var decoded Snapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
		t.Fatalf("gob decode: %v", err)
	}

	restored := New(cfg, nil)
	restored.Restore(&decoded)
	if got, want := restored.Snapshot(), orig.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored snapshot differs:\n got %+v\nwant %+v", got, want)
	}

	// The restored tier must continue exactly like the original.
	follow := func(tier *Tier) [][]maritime.Alert {
		var out [][]maritime.Alert
		for i := 2; i < 6; i++ {
			out = append(out, tier.Slide(t0.Add(time.Duration(i)*time.Minute), nil))
		}
		return out
	}
	if got, want := follow(restored), follow(orig); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restore alerts diverge:\n got %v\nwant %v", got, want)
	}

	// A nil snapshot (taken with the tier off) restores to empty.
	fresh := New(cfg, nil)
	seedSlides(fresh)
	fresh.Restore(nil)
	if st := fresh.Stats(); st.Vessels != 0 || st.PairAlerts != 0 {
		t.Errorf("nil restore left state behind: %+v", st)
	}
}

func TestStaleVesselsEvicted(t *testing.T) {
	tier := New(Config{Stale: 10 * time.Minute}, nil)
	base := geo.Point{Lon: 24.5, Lat: 37.5}
	// 101 cruises past and goes silent; 102 enters a stop. The synopsis
	// is legitimately silent during a stop episode, so only the cruiser
	// may be evicted.
	tier.Slide(t0, []tracker.CriticalPoint{
		cp(101, base, t0, tracker.EventSpeedChange, 12, 90),
		cp(102, geo.Destination(base, 0, 5000), t0, tracker.EventStopStart, 0.3, 0),
	})
	if st := tier.Stats(); st.Vessels != 2 {
		t.Fatalf("Vessels = %d, want 2", st.Vessels)
	}
	tier.Slide(t0.Add(time.Hour), nil)
	st := tier.Stats()
	if st.Vessels != 1 || st.Evicted != 1 {
		t.Errorf("after an hour of silence: %+v, want 1 vessel (the stopped one) / 1 evicted", st)
	}
}
