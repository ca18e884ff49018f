package analytics_test

import (
	"bytes"
	"encoding/gob"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/maritime"
	"repro/internal/tracker"
)

// testdata/parent-snapshot.gob is an analytics.Snapshot in the earlier
// format, which kept the collision screen's vessels in a section of
// their own and no headings in Vessels. Such snapshots live only inside
// version-1 checkpoints and manifests, whose one upgrade is
// checkpoint.SystemV1.Upgrade.

var t0 = time.Date(2009, 6, 1, 12, 0, 0, 0, time.UTC)

func cp(mmsi uint32, pos geo.Point, at time.Time, typ tracker.EventType, speedKn, headingDeg float64) tracker.CriticalPoint {
	return tracker.CriticalPoint{
		MMSI: mmsi, Pos: pos, Time: at, Type: typ,
		SpeedKn: speedKn, HeadingDeg: headingDeg,
	}
}

// TestParentSnapshotUpgradesWithHeadings decodes the earlier-format
// snapshot as the checkpoint reader decodes a version-1 payload — into
// the current type and into the overlay — and upgrades it: the tier
// restores with its headings and goes on like the tier that ran the
// same slides.
func TestParentSnapshotUpgradesWithHeadings(t *testing.T) {
	cfg := analytics.Config{EnableCollision: true}
	legacy, err := os.ReadFile("testdata/parent-snapshot.gob")
	if err != nil {
		t.Fatal(err)
	}
	var old analytics.Snapshot
	if err := gob.NewDecoder(bytes.NewReader(legacy)).Decode(&old); err != nil {
		t.Fatalf("gob decode of the earlier format: %v", err)
	}
	var overlay checkpoint.AnalyticsV1
	if err := gob.NewDecoder(bytes.NewReader(legacy)).Decode(&overlay); err != nil {
		t.Fatalf("gob decode of the version-1 overlay: %v", err)
	}
	if overlay.Collision == nil {
		t.Fatal("fixture carries no collision section")
	}
	snap := core.Snapshot{Analytics: &old}
	if err := (checkpoint.SystemV1{Analytics: &overlay}).Upgrade(&snap); err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	live := analytics.New(cfg, nil)
	qs, slides := legacySlides()
	for i, q := range qs {
		live.Slide(q, slides[i])
	}
	restored := analytics.New(cfg, nil)
	restored.Restore(snap.Analytics)
	got, want := restored.Snapshot(), live.Snapshot()
	for i, v := range want.Vessels {
		// The section leaves out vessels silent beyond the screen's
		// staleness bound; no slide screens them before they report anew.
		if qs[len(qs)-1].Sub(v.At) > 15*time.Minute {
			want.Vessels[i].HeadingDeg = 0
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("earlier-format restore differs:\n got %+v\nwant %+v", got, want)
	}
	headings := map[uint32]float64{}
	for _, v := range got.Vessels {
		headings[v.MMSI] = v.HeadingDeg
	}
	if headings[301] != 90 || headings[302] != 270 {
		t.Errorf("headings after an earlier-format restore: %v, want 301→90 and 302→270", headings)
	}
	resume := func(tier *analytics.Tier) [][]maritime.Alert {
		mid := geo.Point{Lon: 24.5, Lat: 37.5}
		var out [][]maritime.Alert
		for i := 21; i < 40; i++ {
			q := t0.Add(time.Duration(i) * time.Minute)
			var pts []tracker.CriticalPoint
			if i == 25 { // the stopped vessel gets under way toward the pair
				pts = append(pts, cp(101, geo.Destination(mid, 0, 3000), q, tracker.EventStopEnd, 14, 180))
			}
			out = append(out, tier.Slide(q, pts))
		}
		return out
	}
	gotAlerts, wantAlerts := resume(restored), resume(live)
	if !reflect.DeepEqual(gotAlerts, wantAlerts) {
		t.Fatalf("alerts after an earlier-format restore diverge:\n got %v\nwant %v", gotAlerts, wantAlerts)
	}
	if slices.IndexFunc(wantAlerts, func(a []maritime.Alert) bool { return len(a) > 0 }) < 0 {
		t.Error("no alert after the restore: the continuation does not exercise the screen")
	}
}

// legacySlides is the stream testdata/parent-snapshot.gob was taken
// after, by the build that still ran a separate collision detector: a
// pair converging, a pair stopped together, a closed gap and a lone
// stopped vessel, then a slide twenty minutes on in which only the
// converging pair reports. The detector's section of that snapshot
// holds the pair and leaves out the four vessels silent since.
func legacySlides() ([]time.Time, [][]tracker.CriticalPoint) {
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	quay := geo.Destination(mid, 0, 9000)
	q3 := t0.Add(20 * time.Minute)
	return []time.Time{t0, t0.Add(time.Minute), q3}, [][]tracker.CriticalPoint{
		{
			cp(101, quay, t0, tracker.EventStopStart, 0.3, 40),
			cp(102, geo.Destination(quay, 90, 150), t0, tracker.EventStopStart, 0.2, 200),
			cp(201, geo.Destination(mid, 270, 6000), t0, tracker.EventGapStart, 8, 90),
			cp(301, geo.Destination(mid, 270, 9000), t0, tracker.EventSpeedChange, 12, 80),
			cp(302, geo.Destination(mid, 90, 9000), t0, tracker.EventSpeedChange, 12, 260),
			cp(401, geo.Destination(mid, 180, 20000), t0, tracker.EventStopStart, 0.4, 135),
		},
		{
			cp(201, geo.Destination(mid, 270, 2000), t0.Add(50*time.Second), tracker.EventGapEnd, 7, 95),
		},
		{
			cp(301, geo.Destination(mid, 270, 4000), q3, tracker.EventTurn, 12, 90),
			cp(302, geo.Destination(mid, 90, 4000), q3, tracker.EventTurn, 12, 270),
		},
	}
}
