package tracker

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/fleetsim"
	"repro/internal/geo"
	"repro/internal/stream"
)

// simBatches runs a seeded simulation and slices it into 5 min window
// slides. The returned batches are shared read-only across tracker runs.
func simBatches(t *testing.T, vessels int, hours int) []stream.Batch {
	t.Helper()
	return simBatchesEvery(t, vessels, hours, 5*time.Minute)
}

// simBatchesEvery is simBatches with the slide length given.
func simBatchesEvery(t *testing.T, vessels int, hours int, slide time.Duration) []stream.Batch {
	t.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Seed = 7
	cfg.Vessels = vessels
	cfg.Duration = time.Duration(hours) * time.Hour
	fixes := fleetsim.NewSimulator(cfg).Run()
	if len(fixes) == 0 {
		t.Fatal("simulator produced no fixes")
	}
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), slide)
	var batches []stream.Batch
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		batches = append(batches, b)
	}
	// A final empty slide far in the future expires every synopsis, so
	// the delta stream is compared end to end.
	last := batches[len(batches)-1].Query
	batches = append(batches, stream.Batch{Query: last.Add(48 * time.Hour)})
	return batches
}

func comparePoints(t *testing.T, slide int, kind string, serial, sharded []CriticalPoint) {
	t.Helper()
	if len(serial) != len(sharded) {
		t.Fatalf("slide %d: %s count %d (serial) != %d (sharded)", slide, kind, len(serial), len(sharded))
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("slide %d: %s[%d] differs:\n serial:  %+v\n sharded: %+v",
				slide, kind, i, serial[i], sharded[i])
		}
	}
}

// TestShardedEquivalence is the golden test of the tracking tier's one
// slide path, driven through every way it can run — 1, 2, 4 and 7
// shards; plain, through the no-op EnableSelfHeal kept for old callers,
// and under the watchdog — against the
// single-shard reference: byte-identical fresh and delta streams on
// every slide, equal counters (per event type too) and equal final
// state. It also pins where the shards ran: the pool starts for more
// than one shard or under the watchdog, never for a lone unwatched one.
func TestShardedEquivalence(t *testing.T) {
	params := DefaultParams()
	batches := simBatches(t, 120, 2)
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	ref := NewSharded(params, window, 1)
	var fresh, delta [][]CriticalPoint
	for _, b := range batches {
		res := ref.Slide(b)
		fresh = append(fresh, slices.Clone(res.Fresh))
		delta = append(delta, slices.Clone(res.Delta))
	}
	modes := []struct {
		name     string
		heal     bool
		watchdog bool
	}{{"plain", false, false}, {"selfheal", true, false}, {"watchdog", true, true}}
	for _, shards := range []int{1, 2, 4, 7} {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%dshard/%s", shards, mode.name), func(t *testing.T) {
				s := NewSharded(params, window, shards)
				defer s.Close()
				if mode.heal {
					s.EnableSelfHeal(4)
				}
				if mode.watchdog {
					s.SetSlideTimeout(time.Minute)
				}
				for i, b := range batches {
					res := s.Slide(b)
					comparePoints(t, i, "fresh", fresh[i], res.Fresh)
					comparePoints(t, i, "delta", delta[i], res.Delta)
				}
				if !reflect.DeepEqual(ref.Stats(), s.Stats()) {
					t.Errorf("stats: got %+v, want %+v", s.Stats(), ref.Stats())
				}
				if !reflect.DeepEqual(ref.Snapshot(), s.Snapshot()) {
					t.Error("final tier state differs from the reference")
				}
				if got, want := s.pool != nil, shards > 1 || mode.watchdog; got != want {
					t.Errorf("pool started = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestShardedEquivalenceStreaming advances a 1-shard and a 4-shard tier
// in lockstep over a larger run, copying the serial outputs before the
// next slide. Unlike the replay-based golden test this exercises long
// windows with per-slide comparison at streaming cost.
func TestShardedEquivalenceStreaming(t *testing.T) {
	batches := simBatches(t, 200, 3)
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}

	serial := NewSharded(params, window, 1)
	sharded := NewSharded(params, window, 4)
	defer serial.Close()
	defer sharded.Close()

	var critical int
	for i, b := range batches {
		want := serial.Slide(b)
		wantFresh := append([]CriticalPoint(nil), want.Fresh...)
		wantDelta := append([]CriticalPoint(nil), want.Delta...)
		got := sharded.Slide(b)
		comparePoints(t, i, "fresh", wantFresh, got.Fresh)
		comparePoints(t, i, "delta", wantDelta, got.Delta)
		critical += len(got.Fresh)
	}
	if critical == 0 {
		t.Fatal("run produced no critical points; equivalence vacuous")
	}
	if serial.VesselCount() != sharded.VesselCount() {
		t.Errorf("vessel count %d (serial) != %d (sharded)", serial.VesselCount(), sharded.VesselCount())
	}
	si, gi := serial.Infos(), sharded.Infos()
	if len(si) != len(gi) {
		t.Fatalf("Infos length %d != %d", len(si), len(gi))
	}
	for i := range si {
		if si[i] != gi[i] {
			t.Errorf("Infos[%d] differs: %+v vs %+v", i, si[i], gi[i])
		}
	}
}

func TestShardOfRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16} {
		for mmsi := uint32(200000000); mmsi < 200000100; mmsi++ {
			s := ShardOf(mmsi, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", mmsi, n, s)
			}
			if s != ShardOf(mmsi, n) {
				t.Fatalf("ShardOf(%d, %d) not deterministic", mmsi, n)
			}
		}
	}
	if ShardOf(123456789, 1) != 0 {
		t.Error("single shard must own every vessel")
	}
	if ShardOf(123456789, 0) != 0 || ShardOf(123456789, -3) != 0 {
		t.Error("degenerate shard counts must clamp to shard 0")
	}
}

// TestShardOfBalance checks that sequential MMSI blocks — the worst case
// for a modulo without mixing — spread evenly across shards.
func TestShardOfBalance(t *testing.T) {
	const n = 8
	const vessels = 4000
	var counts [n]int
	for i := 0; i < vessels; i++ {
		counts[ShardOf(uint32(200000000+i), n)]++
	}
	mean := vessels / n
	for s, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Errorf("shard %d owns %d of %d vessels (mean %d): hash badly unbalanced", s, c, vessels, mean)
		}
	}
}

// TestShardedBoundaryVessels pins vessels to each shard of a small tier
// and checks the per-vessel accessors route to the right shard.
func TestShardedBoundaryVessels(t *testing.T) {
	const n = 4
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	s := NewSharded(DefaultParams(), window, n)
	defer s.Close()

	// One vessel per shard: scan MMSIs until each shard is hit.
	byShard := map[int]uint32{}
	for m := uint32(1000); len(byShard) < n; m++ {
		sh := ShardOf(m, n)
		if _, ok := byShard[sh]; !ok {
			byShard[sh] = m
		}
	}
	base := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	var b stream.Batch
	b.Query = base.Add(5 * time.Minute)
	for _, m := range byShard {
		for i := 0; i < 3; i++ {
			b.Fixes = append(b.Fixes, ais.Fix{
				MMSI: m,
				Pos:  geo.Point{Lon: 24.0, Lat: 37.0 + float64(i)*0.01},
				Time: base.Add(time.Duration(i) * time.Minute),
			})
		}
	}
	res := s.Slide(b)
	if len(res.Fresh) == 0 {
		t.Fatal("no critical points from boundary vessels")
	}
	if s.VesselCount() != n {
		t.Fatalf("VesselCount = %d, want %d", s.VesselCount(), n)
	}
	for sh, m := range byShard {
		if _, ok := s.Info(m); !ok {
			t.Errorf("vessel %d (shard %d) missing from Info", m, sh)
		}
		if s.Synopsis(m) == nil {
			t.Errorf("vessel %d (shard %d) has no synopsis", m, sh)
		}
	}
}
