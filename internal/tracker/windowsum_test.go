package tracker

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/stream"
)

// around returns x and its two float64 neighbours.
func around(x float64) [3]float64 {
	return [3]float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))}
}

// checkWindow compares the bound-first smooth-turn decision over one
// ring window with the exact oldest-first fold's, at thresholds one ulp
// either side of the fold's magnitude and at the given extra ones, and
// the cumulative change it reports when it fires with the fold.
func checkWindow(t testing.TB, ring []float64, head, n int32, w *windowSum, extra ...float64) {
	t.Helper()
	fold := ringSum(ring, head, n)
	if n == 0 && *w != (windowSum{}) {
		t.Fatalf("empty window carries sums %+v", *w)
	}
	if d := math.Abs(w.sum - fold); d > w.slack(n) {
		t.Fatalf("running sum %v is %v from the fold %v, past its bound %v (n=%d)", w.sum, d, fold, w.slack(n), n)
	}
	turnAt := func(th float64) {
		cum, got := cumTurnAbove(th, ring, head, n, w)
		if want := math.Abs(fold) > th; got != want {
			t.Fatalf("turn test at %v: bound-first %v, fold %v (fold %v, sum %+v, n=%d)", th, got, want, fold, *w, n)
		}
		if got && math.Float64bits(cum) != math.Float64bits(fold) {
			t.Fatalf("turn at %v reports %v, fold %v", th, cum, fold)
		}
	}
	for _, th := range around(math.Abs(fold)) {
		turnAt(th)
	}
	for _, th := range extra {
		turnAt(th)
	}
}

// ringModel is a bare ring window with its running sums, driven the
// way ingest drives the turn window.
type ringModel struct {
	ring    []float64
	head, n int32
	w       windowSum
}

func (r *ringModel) push(v float64) { pushWindow(r.ring, &r.head, &r.n, &r.w, v) }
func (r *ringModel) reset()         { r.n, r.w = 0, windowSum{} }
func (r *ringModel) check(t testing.TB, extra ...float64) {
	checkWindow(t, r.ring, r.head, r.n, &r.w, extra...)
}

// TestWindowSumDecisionsMatchFold drives ring windows through random
// and adversarial entry sequences and checks, after every entry, that
// the bound-first smooth-turn decision is the exact fold's.
func TestWindowSumDecisionsMatchFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []func() float64{
		func() float64 { return (rng.Float64() - 0.5) * 30 },   // turn deltas
		func() float64 { return rng.Float64() * 15 },           // one-signed deltas
		func() float64 { return rng.NormFloat64() * 1e6 },      // wide magnitudes
		func() float64 { return float64(rng.Intn(5)-2) * 7.5 }, // exact cancellations
	}
	for _, m := range []int{2, 5, 10, 16} {
		for _, draw := range draws {
			r := ringModel{ring: make([]float64, m)}
			for i := 0; i < 20000; i++ {
				if rng.Intn(97) == 0 {
					r.reset()
				}
				r.push(draw())
				r.check(t, 15, 60, rng.Float64()*30)
			}
		}
	}

	// A large entry leaving beside tiny ones: the running sum keeps
	// the large entry's rounding long after the fold has lost it.
	for _, big := range []float64{1e15, -1e15, 1e300, 0x1p53 + 2} {
		r := ringModel{ring: make([]float64, 10)}
		r.push(big)
		for i := 0; i < 40; i++ {
			r.push(1e-3 * float64(i%7))
			r.check(t, 1e-3, 15)
		}
	}
	// Entries whose sum sits on a threshold, and entries an ulp off it.
	for _, th := range []float64{15, 60, 4} {
		r := ringModel{ring: make([]float64, 10)}
		for i := 0; i < 10; i++ {
			r.push(th / 10)
		}
		r.check(t, around(th)[0], th, around(th)[2])
		for i := 0; i < 10; i++ {
			r.push(math.Nextafter(th/10, math.Inf(1)))
			r.check(t, around(th)[0], th, around(th)[2])
		}
	}
	// Signed zeros, subnormals and non-finite entries.
	r := ringModel{ring: make([]float64, 4)}
	for _, v := range []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, math.Inf(1), 1, 2, 3, 4, math.NaN(), 1, 2, 3, 4, 5} {
		r.push(v)
		r.check(t, 0, 5e-324, 15)
	}
}

// FuzzWindowSum drives a ring window of 2 to 17 entries through the
// bytes' entries and resets, checking after each that the bound-first
// smooth-turn decision is the exact fold's.
func FuzzWindowSum(f *testing.F) {
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 0x2e, 0x40, 1, 7, 1, 200, 2, 1, 5})
	f.Add([]byte{0, 3, 0x43, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 3, 2, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := ringModel{ring: make([]float64, 2+int(data[0])%16)}
		data = data[1:]
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch op % 4 {
			case 0: // an arbitrary float64
				if len(data) < 8 {
					return
				}
				r.push(math.Float64frombits(binary.LittleEndian.Uint64(data)))
				data = data[8:]
			case 1: // a small multiple of a quarter degree
				if len(data) == 0 {
					return
				}
				r.push(float64(int8(data[0])) / 4)
				data = data[1:]
			case 2:
				r.reset()
			case 3: // a large entry, to leave beside small ones
				r.push(math.Ldexp(float64(op>>2)-31.5, 40))
			}
			r.check(t, 15, 1)
		}
	})
}

// checkShardWindows checks the turn window of every vessel in the
// shard.
func checkShardWindows(t testing.TB, sh *shard) {
	t.Helper()
	for slot := range sh.slots {
		st := &sh.slots[slot]
		if !st.inUse {
			continue
		}
		_, _, turns := sh.vesselRings(int32(slot))
		checkWindow(t, turns, st.turnHead, st.turnLen, &st.turnSum)
	}
}

// TestWindowSumsFollowTracker runs a noisy fleet through a shard fix by
// fix, checking every vessel's turn-window decision against the exact
// fold after each fix and across a snapshot restore. The fleet resets
// the windows at gaps, at turn emissions and at stationary fixes; a
// scripted vessel adds an outlier resync.
func TestWindowSumsFollowTracker(t *testing.T) {
	cfg := fleetsim.DefaultConfig()
	cfg.Seed = 3
	cfg.Vessels = 60
	cfg.Duration = 3 * time.Hour
	cfg.Noise.OutlierProb = 0.02
	cfg.Noise.GapPerHour = 0.5
	fixes := fleetsim.NewSimulator(cfg).Run()
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), 5*time.Minute)
	var batches []stream.Batch
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		batches = append(batches, b)
	}

	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	tier := NewSharded(params, window, 1)
	defer tier.Close()

	// The scripted vessel cruises east at about 15 knots, then reports
	// from a track far north of its course until the gate gives in and
	// resynchronizes on it.
	sh := tier.shards[0]
	const scripted = 999000001
	t0 := batches[0].Query.Add(-5 * time.Minute).UnixNano()
	for i := 0; i < 30; i++ {
		lon, lat := 24.0+0.0009*float64(i), 37.0
		if i >= 20 {
			lon, lat = 24.02, 37.3+0.001*float64(i-20)
		}
		sh.ingestFix(scripted, lon, lat, t0+int64(i)*int64(10*time.Second))
		checkShardWindows(t, sh)
	}
	if sh.stats.Outliers < params.OutlierRunLimit-1 {
		t.Fatalf("scripted vessel: %d outliers, want the gate to reject %d before resync", sh.stats.Outliers, params.OutlierRunLimit-1)
	}
	if st := &sh.slots[sh.index[scripted]]; st.velLen >= int32(params.M) {
		t.Fatalf("scripted vessel: window of %d after the resync, want it restarted", st.velLen)
	}

	cur := tier
	for k, b := range batches {
		for _, f := range b.Fixes {
			sh.ingestFix(f.MMSI, f.Pos.Lon, f.Pos.Lat, f.Time.UnixNano())
			checkShardWindows(t, sh)
		}
		sh.slide(shardIn{}, b.Query)
		checkShardWindows(t, sh)
		if k == len(batches)/2 {
			// Restore a tier from this one's snapshot and go on from the
			// restored windows.
			restored := NewSharded(params, window, 1)
			defer restored.Close()
			if err := restored.RestoreSnapshot(cur.Snapshot()); err != nil {
				t.Fatal(err)
			}
			cur, sh = restored, restored.shards[0]
			checkShardWindows(t, sh)
		}
	}
	st := cur.Stats()
	for _, typ := range []EventType{EventGapEnd, EventTurn, EventSmoothTurn} {
		if st.ByType[typ] == 0 {
			t.Errorf("the fleet emitted no %v: its window resets are not covered", typ)
		}
	}
	if st.Outliers <= params.OutlierRunLimit {
		t.Errorf("the fleet rejected %d outliers beside the scripted vessel's", st.Outliers)
	}
}
