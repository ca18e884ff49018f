package tracker

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/stream"
)

var synT0 = time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)

// pointAt is a synopsis point stamped d after synT0, told apart by its
// speed.
func pointAt(d time.Duration, tag float64) *CriticalPoint {
	return &CriticalPoint{MMSI: 1, Time: synT0.Add(d), SpeedKn: tag}
}

// tags lists the speed tags of points, oldest first.
func tags(cps []CriticalPoint) []float64 {
	out := make([]float64, len(cps))
	for i := range cps {
		out[i] = cps[i].SpeedKn
	}
	return out
}

func TestSynopsisBufferEviction(t *testing.T) {
	var b synopsisBuf
	for i := 0; i < 10; i++ {
		b.push(pointAt(time.Duration(i)*time.Minute, float64(i)))
	}
	if b.len() != 10 {
		t.Fatalf("len = %d", b.len())
	}
	expired := b.expire(nil, synT0.Add(4*time.Minute).UnixNano()) // minutes 0..4
	if got := tags(expired); !reflect.DeepEqual(got, []float64{0, 1, 2, 3, 4}) {
		t.Errorf("expired %v, want minutes 0..4", got)
	}
	if b.len() != 5 {
		t.Errorf("len = %d, want 5", b.len())
	}
	if live := b.live(); live[0].SpeedKn != 5 || live[len(live)-1].SpeedKn != 9 {
		t.Errorf("live = %v, want minutes 5..9", tags(live))
	}
	if got, want := b.oldestNS(), synT0.Add(5*time.Minute).UnixNano(); got != want {
		t.Errorf("oldestNS = %d, want %d", got, want)
	}
}

// TestSynopsisBufferDelayedPointExpiresLater pins window semantics for
// a point appended out of time order: expiry drops only the prefix at
// or before the cutoff, so a delayed point deeper in the buffer stays
// until a later sweep reaches it.
func TestSynopsisBufferDelayedPointExpiresLater(t *testing.T) {
	var b synopsisBuf
	for _, m := range []int{0, 1, 5, 3, 6} { // minute 3 arrives after 5
		b.push(pointAt(time.Duration(m)*time.Minute, float64(m)))
	}
	expired := b.expire(nil, synT0.Add(4*time.Minute).UnixNano())
	if got := tags(expired); !reflect.DeepEqual(got, []float64{0, 1}) {
		t.Errorf("first sweep expired %v, want [0 1]", got)
	}
	expired = b.expire(nil, synT0.Add(5*time.Minute).UnixNano())
	if got := tags(expired); !reflect.DeepEqual(got, []float64{5, 3}) {
		t.Errorf("second sweep expired %v, want [5 3]", got)
	}
	if got := tags(b.live()); !reflect.DeepEqual(got, []float64{6}) {
		t.Errorf("live %v, want [6]", got)
	}
}

func TestSynopsisBufferEvictAll(t *testing.T) {
	var b synopsisBuf
	b.push(pointAt(0, 0))
	b.push(pointAt(time.Second, 1))
	b.expire(nil, synT0.Add(time.Hour).UnixNano())
	if b.len() != 0 {
		t.Errorf("len = %d after full expiry", b.len())
	}
	if b.oldestNS() != noSynopsis {
		t.Error("an empty buffer reports an oldest point")
	}
	// The buffer remains usable.
	b.push(pointAt(2*time.Second, 2))
	if b.len() != 1 || b.live()[0].SpeedKn != 2 {
		t.Errorf("live = %v after reuse", tags(b.live()))
	}
}

func TestSynopsisBufferCompaction(t *testing.T) {
	var b synopsisBuf
	const n = 64
	for i := 0; i < n; i++ {
		b.push(pointAt(time.Duration(i)*time.Second, float64(i)))
	}
	full := cap(b.items)
	for len(b.items) < cap(b.items) {
		b.push(pointAt(time.Duration(len(b.items))*time.Second, float64(len(b.items))))
	}
	// Expire three quarters, then fill past the end: the full array is
	// compacted in place instead of grown.
	b.expire(nil, synT0.Add(time.Duration(3*full/4-1)*time.Second).UnixNano())
	live := b.len()
	b.push(pointAt(time.Hour, -1))
	if cap(b.items) != full {
		t.Errorf("cap = %d after a push into a three-quarters dead array, want %d (compacted in place)", cap(b.items), full)
	}
	if b.head != 0 || b.len() != live+1 {
		t.Errorf("head %d len %d after compaction, want 0 and %d", b.head, b.len(), live+1)
	}
	if got := b.live()[0].SpeedKn; got != float64(3*full/4) {
		t.Errorf("oldest live point %v, want %d", got, 3*full/4)
	}
	// A full array with less than half of it dead is regrown to twice
	// its live points.
	b.expire(nil, synT0.Add(time.Duration(3*full/4)*time.Second).UnixNano())
	for len(b.items) < cap(b.items) {
		b.push(pointAt(time.Hour, -1))
	}
	live = b.len()
	b.push(pointAt(time.Hour, -1))
	if cap(b.items) != 2*live {
		t.Errorf("cap = %d after a push into a full array with %d live points, want %d", cap(b.items), live, 2*live)
	}
}

// TestSynopsisMemoryFollowsWindow drives one vessel that emits a
// critical point at every fix — its speed alternates between 8 and
// 16 kn — through 50 windows of stream. Its synopsis must hold only
// the window's points, and the capacity of its backing array must stay
// within twice the live points plus a constant, however long the
// stream has run.
func TestSynopsisMemoryFollowsWindow(t *testing.T) {
	const mmsi = 237000001
	window := stream.WindowSpec{Range: 30 * time.Minute, Slide: 5 * time.Minute}
	tier := NewSharded(DefaultParams(), window, 1)
	defer tier.Close()
	sh := tier.shards[0]

	pos := geo.Point{Lon: 24, Lat: 37}
	tm := synT0
	slides := 50 * int(window.Range/window.Slide)
	var peakCap int
	for s := 1; s <= slides; s++ {
		var b stream.Batch
		b.Query = synT0.Add(time.Duration(s) * window.Slide)
		for tm.Before(b.Query) {
			// 1 min fixes heading north, alternately 8 and 16 kn.
			kn := 8.0
			if tm.Minute()%2 == 1 {
				kn = 16
			}
			pos.Lat += kn * 1852 / 60 / 111_195
			b.Fixes = append(b.Fixes, ais.Fix{MMSI: mmsi, Pos: pos, Time: tm})
			tm = tm.Add(time.Minute)
		}
		res := tier.Slide(b)
		if len(res.Fresh) < 4 {
			t.Fatalf("slide %d emitted %d points, want one per fix", s, len(res.Fresh))
		}
		st := &sh.slots[sh.index[mmsi]]
		live, c := st.synopsis.len(), cap(st.synopsis.items)
		if live > 40 {
			t.Fatalf("slide %d: %d live points, want at most one window's (%d fixes)", s, live, 30)
		}
		// After a regrow the live count dips by at most one slide's
		// expiry (5 points), hence the constant.
		if c > 2*live+16 {
			t.Fatalf("slide %d: synopsis capacity %d for %d live points, want <= 2×live + 16", s, c, live)
		}
		peakCap = max(peakCap, c)
	}
	t.Logf("%d slides: peak synopsis capacity %d", slides, peakCap)
}

// TestEvictedVesselReturnsClean evicts two vessels with rich state —
// velocity and turn windows, a stop episode, a long synopsis, nonzero
// odometers — and brings one of them back beside a vessel new to the
// tier: both take the freed slots, and each must then behave exactly as
// it would in a fresh tier that never saw the evicted ones, down to its
// snapshot (windows, runs, synopsis, odometers) and its summary.
func TestEvictedVesselReturnsClean(t *testing.T) {
	const a, b, c = 237000001, 237000002, 237000003
	window := stream.WindowSpec{Range: 30 * time.Minute, Slide: 5 * time.Minute}
	tier := NewSharded(DefaultParams(), window, 1)
	defer tier.Close()
	sh := tier.shards[0]

	// zigzag returns fixes every minute from start over span: a course
	// that turns and changes speed, ending in a drift within a few meters.
	zigzag := func(mmsi uint32, start time.Time, span time.Duration) []ais.Fix {
		var fs []ais.Fix
		p := geo.Point{Lon: 24 + float64(mmsi%10)*0.1, Lat: 37}
		for d := time.Duration(0); d < span; d += time.Minute {
			step := 0.002 * float64(1+int(d/time.Minute)%3)
			if d > span*2/3 {
				step = 0.00001
			}
			if int(d/time.Minute)%4 < 2 {
				p.Lon += step
			} else {
				p.Lat += step
			}
			fs = append(fs, ais.Fix{MMSI: mmsi, Pos: p, Time: start.Add(d)})
		}
		return fs
	}
	batches := func(fixes []ais.Fix, until time.Time) []stream.Batch {
		var out []stream.Batch
		for q := synT0.Add(window.Slide); !q.After(until); q = q.Add(window.Slide) {
			bt := stream.Batch{Query: q}
			for _, f := range fixes {
				if !f.Time.Before(q.Add(-window.Slide)) && f.Time.Before(q) {
					bt.Fixes = append(bt.Fixes, f)
				}
			}
			out = append(out, bt)
		}
		return out
	}

	before := append(zigzag(a, synT0, time.Hour), zigzag(b, synT0, time.Hour)...)
	back := synT0.Add(3 * time.Hour)
	after := append(zigzag(a, back, time.Hour), zigzag(c, back, time.Hour)...)

	for _, bt := range batches(before, synT0.Add(time.Hour)) {
		tier.Slide(bt)
	}
	slotA := sh.index[a]
	if st := &sh.slots[slotA]; st.velLen == 0 || st.synopsis.len() < 3 || len(st.stopRun) == 0 || st.odometerM == 0 {
		t.Fatalf("vessel %d has too little state to make the test meaningful: vel %d synopsis %d stop run %d odometer %.0f",
			a, st.velLen, st.synopsis.len(), len(st.stopRun), st.odometerM)
	}
	// Two silent windows evict both vessels.
	for _, bt := range batches(nil, back)[12:] {
		tier.Slide(bt)
	}
	if len(sh.index) != 0 || len(sh.free) != 2 {
		t.Fatalf("after the silence: %d vessels live, %d free slots; want 0 and 2", len(sh.index), len(sh.free))
	}

	fresh := NewSharded(DefaultParams(), window, 1)
	defer fresh.Close()
	all := batches(after, back.Add(time.Hour))[len(batches(nil, back)):]
	for i, bt := range all {
		want := fresh.Slide(bt)
		wantFresh := append([]CriticalPoint(nil), want.Fresh...)
		wantDelta := append([]CriticalPoint(nil), want.Delta...)
		got := tier.Slide(bt)
		comparePoints(t, i, "fresh", wantFresh, got.Fresh)
		comparePoints(t, i, "delta", wantDelta, got.Delta)
		if i == 0 {
			if len(sh.free) != 0 || len(sh.slots) != 2 {
				t.Fatalf("the returning vessels took %d new slots and left %d free, want both freed slots reused",
					len(sh.slots)-2, len(sh.free))
			}
		}
	}
	for _, m := range []uint32{a, c} {
		want, got := fresh.Snapshot(), tier.Snapshot()
		if !reflect.DeepEqual(vesselOf(want, m), vesselOf(got, m)) {
			t.Errorf("vessel %d after reuse:\n got  %+v\n want %+v", m, vesselOf(got, m), vesselOf(want, m))
		}
		wi, _ := fresh.Info(m)
		gi, _ := tier.Info(m)
		if wi != gi {
			t.Errorf("vessel %d info after reuse: got %+v, want %+v", m, gi, wi)
		}
	}
}

// vesselOf returns a vessel's entry in a snapshot.
func vesselOf(snap Snapshot, mmsi uint32) VesselSnapshot {
	for _, vs := range snap.Vessels {
		if vs.MMSI == mmsi {
			return vs
		}
	}
	return VesselSnapshot{}
}
