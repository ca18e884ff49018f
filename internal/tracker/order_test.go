package tracker

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/stream"
)

// A shard ingests its slide vessel-major (ingestSlide). The tests here
// hold it to the batch-order reference it replaced: every slide's Fresh
// and Delta, the counters and the snapshot must come out byte for byte
// as ingesting each fix in batch order, one probe per fix, gives them.

// ingestFix ingests one fix as batch-order ingest does: probe the
// vessel's slot, admitting a new vessel, then ingest.
func (tr *shard) ingestFix(mmsi uint32, lon, lat float64, tns int64) {
	slot, ok := tr.index[mmsi]
	if !ok {
		slot = tr.admit(mmsi)
	}
	tr.ingest(slot, mmsi, lon, lat, tns)
}

// refSlide is the batch-order reference of slide: each record ingested
// in batch order, its emissions tagged with its batch index as they are
// made.
func (tr *shard) refSlide(in shardIn, q time.Time) shardOut {
	tr.beginSlide(in)
	for _, r := range in.recs {
		from := len(tr.fresh)
		tr.ingestFix(r.mmsi, r.lon, r.lat, r.ns)
		for range len(tr.fresh) - from {
			tr.freshIdx = append(tr.freshIdx, r.idx)
		}
	}
	return tr.closeSlide(q)
}

// orderWindow is the window the order tests slide: short enough that
// silent vessels are evicted and come back.
var orderWindow = stream.WindowSpec{Range: 30 * time.Minute, Slide: 5 * time.Minute}

// orderFleet builds a random fleet's stream as slides. Each vessel
// cruises, turns, slows, stops, falls silent past the gap period and
// sends outliers, duplicates and fixes behind its own clock; a fix is
// batched with the slide its time falls in, or one later when it is
// late. Inside a slide the vessels' fixes are interleaved at random,
// each vessel's in its own order. shed reports, per slide, whether
// overload shedding is on for it.
func orderFleet(seed int64, vessels, slides int) (batches []stream.Batch, shed []bool) {
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	slide := orderWindow.Slide
	perSlide := make([][][]ais.Fix, slides) // [slide][vessel] fixes, in the vessel's order
	for k := range perSlide {
		perSlide[k] = make([][]ais.Fix, vessels)
	}
	for v := 0; v < vessels; v++ {
		mmsi := uint32(200000000 + rng.Intn(1000000))
		pos := geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		heading := rng.Float64() * 360
		mode := rng.Intn(3)                                  // 0 cruise, 1 slow, 2 stop
		t := t0.Add(time.Duration(rng.Int63n(int64(slide)))) // first fix inside slide 0
		for {
			k := int(t.Sub(t0) / slide)
			if t.Sub(t0)%slide == 0 && k > 0 {
				k-- // the query time closes its slide
			}
			late := rng.Intn(40) == 0
			if late {
				k++
			}
			if k >= slides {
				break
			}
			f := ais.Fix{MMSI: mmsi, Pos: pos, Time: t}
			switch r := rng.Intn(60); {
			case r == 0: // outlier far off the course
				f.Pos = geo.Point{Lon: pos.Lon + 0.3, Lat: pos.Lat - 0.2}
			case r == 1 && !late: // behind the vessel's own clock
				f.Time = t.Add(-time.Duration(1+rng.Intn(90)) * time.Second)
			}
			perSlide[k][v] = append(perSlide[k][v], f)
			if rng.Intn(30) == 0 { // duplicate
				perSlide[k][v] = append(perSlide[k][v], f)
			}

			if rng.Intn(25) == 0 {
				mode = rng.Intn(3)
			}
			if rng.Intn(15) == 0 {
				heading += 20 + rng.Float64()*90 // sharp turn
			} else {
				heading += rng.NormFloat64() * 4
			}
			var knots float64
			switch mode {
			case 0:
				knots = 8 + rng.Float64()*14
			case 1:
				knots = 1.5 + rng.Float64()*3
			default:
				knots = rng.Float64() * 0.3
			}
			dt := time.Duration(10+rng.Intn(110)) * time.Second
			if rng.Intn(80) == 0 {
				dt = time.Duration(12+rng.Intn(30)) * time.Minute // silence past the gap period
			}
			d := geo.KnotsToMetersPerSecond(knots) * dt.Seconds()
			rad := heading * math.Pi / 180
			pos.Lat += d * math.Cos(rad) / 111320
			pos.Lon += d * math.Sin(rad) / (111320 * math.Cos(pos.Lat*math.Pi/180))
			t = t.Add(dt)
		}
	}

	for k := 0; k < slides; k++ {
		queues := perSlide[k]
		var b stream.Batch
		b.Query = t0.Add(time.Duration(k+1) * slide)
		live := make([]int, 0, vessels)
		for v, q := range queues {
			if len(q) > 0 {
				live = append(live, v)
			}
		}
		for len(live) > 0 {
			j := rng.Intn(len(live))
			v := live[j]
			b.Fixes = append(b.Fixes, queues[v][0])
			if queues[v] = queues[v][1:]; len(queues[v]) == 0 {
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		batches = append(batches, b)
		shed = append(shed, rng.Intn(4) == 0)
	}
	// A final empty slide far in the future expires every synopsis.
	batches = append(batches, stream.Batch{Query: batches[len(batches)-1].Query.Add(48 * time.Hour)})
	return batches, append(shed, false)
}

// orderRun is what the order tests compare: one digest of each slide's
// Fresh and Delta, and the counters and snapshot after the middle slide
// and after the last. stats are the final counters.
type orderRun struct {
	slides []string
	state  [2][]byte
	stats  Stats
}

// slideDigest hashes one slide's output field by field.
func slideDigest(res SlideResult) string {
	d := &digestWriter{h: sha256.New()}
	d.i64(res.Query.UnixNano())
	d.points("fresh", res.Fresh)
	d.points("delta", res.Delta)
	return hex.EncodeToString(d.h.Sum(nil))
}

// stateBytes encodes a tier's counters and snapshot.
func stateBytes(t testing.TB, s *Sharded) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Stats    Stats
		Snapshot Snapshot
	}{s.Stats(), s.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refOrderRun slides the batches through one shard in batch order.
func refOrderRun(t testing.TB, batches []stream.Batch, shed []bool) orderRun {
	ref := NewSharded(DefaultParams(), orderWindow, 1)
	defer ref.Close()
	var run orderRun
	in := make([]shardIn, 1)
	for k, b := range batches {
		ref.SetShedStationary(shed[k])
		ref.route(b, in)
		out := ref.shards[0].refSlide(in[0], b.Query)
		run.slides = append(run.slides, slideDigest(SlideResult{Query: b.Query, Fresh: out.fresh, Delta: out.delta}))
		if k == len(batches)/2 {
			run.state[0] = stateBytes(t, ref)
		}
	}
	run.state[1] = stateBytes(t, ref)
	run.stats = ref.Stats()
	return run
}

// tierOrderRun slides the batches through a tier of the given shard
// count in one of the ways the pipeline drives it: "plain" Slide,
// every slide rolled into the next ("roll"), or Slide under the
// "watchdog" (every shard pooled).
func tierOrderRun(t testing.TB, batches []stream.Batch, shed []bool, shards int, mode string) orderRun {
	tier := NewSharded(DefaultParams(), orderWindow, shards)
	defer tier.Close()
	if mode == "watchdog" {
		tier.SetSlideTimeout(time.Minute)
	}
	var run orderRun
	add := func(res SlideResult) { run.slides = append(run.slides, slideDigest(res)) }
	for k := range batches {
		tier.SetShedStationary(shed[k])
		if mode == "roll" {
			if res, _, _ := tier.Roll(&batches[k]); k > 0 {
				add(res)
			}
		} else {
			add(tier.Slide(batches[k]))
		}
		if k == len(batches)/2 {
			// In roll mode this finishes slide k, whose result the next
			// Roll returns.
			run.state[0] = stateBytes(t, tier)
		}
	}
	if mode == "roll" {
		res, _, _ := tier.Roll(nil)
		add(res)
	}
	run.state[1] = stateBytes(t, tier)
	return run
}

// checkSlideOrder runs one random fleet through every shard count and
// mode, compares each with the batch-order reference and returns the
// reference's final counters.
func checkSlideOrder(t *testing.T, seed int64, vessels, slides int) Stats {
	t.Helper()
	batches, shed := orderFleet(seed, vessels, slides)
	want := refOrderRun(t, batches, shed)
	for _, shards := range []int{1, 3, DefaultShards()} {
		for _, mode := range []string{"plain", "roll", "watchdog"} {
			got := tierOrderRun(t, batches, shed, shards, mode)
			if len(got.slides) != len(want.slides) {
				t.Fatalf("seed %d shards=%d %s: %d slides, want %d", seed, shards, mode, len(got.slides), len(want.slides))
			}
			for k := range want.slides {
				if got.slides[k] != want.slides[k] {
					t.Fatalf("seed %d shards=%d %s: slide %d differs from batch-order ingest", seed, shards, mode, k)
				}
			}
			for i, when := range []string{"middle", "end"} {
				if !bytes.Equal(got.state[i], want.state[i]) {
					t.Fatalf("seed %d shards=%d %s: counters or snapshot at the %s differ from batch-order ingest", seed, shards, mode, when)
				}
			}
		}
	}
	return want.stats
}

// TestSlideOrderMatchesBatchOrder runs random fleets — random vessels,
// motion, disorder and cross-vessel interleavings — through shards 1, 3
// and DefaultShards(), plain, rolled and under the watchdog, against
// batch-order ingest.
func TestSlideOrderMatchesBatchOrder(t *testing.T) {
	seeds := 12
	if testing.Short() || raceEnabled {
		seeds = 3
	}
	// The fleets must exercise every path of the per-vessel state
	// machine the order could disturb.
	st := checkSlideOrder(t, 1, 40, 30)
	for seed := int64(2); seed <= int64(seeds); seed++ {
		checkSlideOrder(t, seed, 40, 30)
	}
	for _, typ := range []EventType{EventFirst, EventGapStart, EventGapEnd, EventTurn, EventSpeedChange, EventStopStart, EventSlowStart} {
		if st.ByType[typ] == 0 {
			t.Errorf("seed 1 fleet emitted no %v", typ)
		}
	}
	if st.Outliers == 0 || st.Duplicates == 0 || st.LateAccepted == 0 || st.LateDropped == 0 || st.Shed == 0 {
		t.Errorf("seed 1 fleet misses a disorder shape: %+v", st)
	}
}

// FuzzSlideOrder fuzzes the vessel-major slide against batch-order
// ingest over random fleets: the seed picks the vessels, their motion
// and disorder, and the interleaving of every slide. Plain `go test`
// runs only the seeds; `make fuzz-slide-order` fuzzes for 10 s.
func FuzzSlideOrder(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(6))
	f.Add(int64(2), uint8(12), uint8(24))
	f.Add(int64(3), uint8(40), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, vessels, slides uint8) {
		checkSlideOrder(t, seed, 1+int(vessels)%48, 1+int(slides)%36)
	})
}
