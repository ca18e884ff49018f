package tracker

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/stream"
)

// digestWriter hashes tracker output field by field, floats by their
// bits, so any change to what the tracker emits — a reordered point, a
// float that differs in its last bit — changes the digest.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digestWriter) i64(v int64)   { d.u64(uint64(v)) }
func (d *digestWriter) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digestWriter) point(cp CriticalPoint) {
	d.u64(uint64(cp.MMSI))
	d.f64(cp.Pos.Lon)
	d.f64(cp.Pos.Lat)
	d.i64(cp.Time.UnixNano())
	d.h.Write([]byte(cp.Time.Location().String()))
	d.i64(int64(cp.Type))
	d.f64(cp.SpeedKn)
	d.f64(cp.HeadingDeg)
	d.i64(int64(cp.Duration))
	d.f64(cp.Confidence)
}

func (d *digestWriter) points(kind string, cps []CriticalPoint) {
	d.h.Write([]byte(kind))
	d.u64(uint64(len(cps)))
	for i := range cps {
		d.point(cps[i])
	}
}

func (d *digestWriter) stats(s Stats) {
	for _, v := range []int{s.FixesIn, s.Duplicates, s.Outliers, s.Critical, s.LateAccepted, s.LateDropped, s.Shed} {
		d.i64(int64(v))
	}
	types := make([]EventType, 0, len(s.ByType))
	for k := range s.ByType {
		types = append(types, k)
	}
	slices.Sort(types)
	for _, k := range types {
		d.i64(int64(k))
		d.i64(int64(s.ByType[k]))
	}
}

// digestBatches simulates a fleet of the benchmark's shape (35 areas)
// and slices it into β = 5 min slides, ending with an empty slide far in
// the future that expires every synopsis.
func digestBatches(t *testing.T, seed int64, vessels, hours int) []stream.Batch {
	t.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Seed = seed
	cfg.Vessels = vessels
	cfg.NumAreas = 35
	cfg.Duration = time.Duration(hours) * time.Hour
	batcher := stream.NewBatcher(stream.NewSliceSource(fleetsim.NewSimulator(cfg).Run()), 5*time.Minute)
	var batches []stream.Batch
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		batches = append(batches, b)
	}
	last := batches[len(batches)-1].Query
	return append(batches, stream.Batch{Query: last.Add(48 * time.Hour)})
}

// trackerDigest slides the batches through a tier of the given shard
// count and hashes every slide's Fresh and Delta and the final Stats.
// It also returns how many vessels were evicted and later came back
// (a second EventFirst), which the pinned shapes must exercise.
func trackerDigest(batches []stream.Batch, window time.Duration, shards int) (digest string, returns int) {
	tier := NewSharded(DefaultParams(), stream.WindowSpec{Range: window, Slide: 5 * time.Minute}, shards)
	defer tier.Close()
	d := &digestWriter{h: sha256.New()}
	firsts := map[uint32]int{}
	for _, b := range batches {
		res := tier.Slide(b)
		d.i64(res.Query.UnixNano())
		d.points("fresh", res.Fresh)
		d.points("delta", res.Delta)
		for _, cp := range res.Fresh {
			if cp.Type == EventFirst {
				if firsts[cp.MMSI]++; firsts[cp.MMSI] == 2 {
					returns++
				}
			}
		}
	}
	d.stats(tier.Stats())
	return hex.EncodeToString(d.h.Sum(nil)), returns
}

// TestTrackerDigestPinned pins the tracker's own output bytes — every
// field of every fresh and delta critical point, slide by slide, and
// the final counters — on fleets of about a thousand vessels at seeds 1
// and 7, with windows of 30 min (short enough that silent vessels are
// evicted and come back) and 1 h, at 1, 3 and DefaultShards()
// shards. The digests were recorded with the map-of-pointers vessel
// state and copy-shifted velocity windows; any change to the tracker's
// state layout must reproduce them bit for bit.
func TestTrackerDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two fleets")
	}
	const vessels, hours = 1000, 8
	for _, c := range []struct {
		seed    int64
		window  time.Duration
		returns bool // vessels must be evicted and come back
		want    string
	}{
		{1, 30 * time.Minute, true, "1e80eb3a9cb4e3ad318886aac870b6bae6695a7e9484e9ccf64bbb42c8e01024"},
		{1, time.Hour, false, "08e785c3c03c4219b1d0670d31f43e92912fa09d40913bfbc816b073ad123b43"},
		{7, 30 * time.Minute, true, "8a576fc7c89044eb44ca3694149b7e19d1dca9c24773285748600ec56e0b6081"},
		{7, time.Hour, false, "aee2d2f410e0f75a2f81e4a7d8b77b024a929aaccca28a4d70d3687103e5fa04"},
	} {
		batches := digestBatches(t, c.seed, vessels, hours)
		for _, shards := range []int{1, 3, DefaultShards()} {
			got, returns := trackerDigest(batches, c.window, shards)
			t.Logf("seed %d ω=%v shards=%d: %d vessels returned after eviction, digest %s",
				c.seed, c.window, shards, returns, got)
			if c.returns && returns == 0 {
				t.Errorf("seed %d ω=%v: no vessel was evicted and came back", c.seed, c.window)
			}
			if got != c.want {
				t.Errorf("seed %d ω=%v shards=%d: digest %s, want %s", c.seed, c.window, shards, got, c.want)
			}
		}
	}
}
