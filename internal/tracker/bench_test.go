package tracker

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/stream"
)

// benchWorkload is a benchmark fleet: the given seed and fleet size, 35
// areas, 2 h, 5 min slides.
func benchWorkload(b *testing.B, seed int64, vessels int) (batches []stream.Batch, fixes int) {
	b.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Seed = seed
	cfg.Vessels = vessels
	cfg.Duration = 2 * time.Hour
	all := fleetsim.NewSimulator(cfg).Run()
	batcher := stream.NewBatcher(stream.NewSliceSource(all), 5*time.Minute)
	for {
		bt, ok := batcher.Next()
		if !ok {
			break
		}
		batches = append(batches, bt)
	}
	return batches, len(all)
}

func benchSlide(b *testing.B, batches []stream.Batch, fixes, shards int) {
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	params := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewSharded(params, window, shards)
		for _, bt := range batches {
			tr.Slide(bt)
		}
		tr.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fixes), "ns/fix")
	b.ReportMetric(float64(b.N*fixes)/b.Elapsed().Seconds(), "fixes/s")
}

// BenchmarkShardedSlide replays the 400-vessel seed-42 fleet through a
// cold tracking tier at 1, 2 and 4 shards.
func BenchmarkShardedSlide(b *testing.B) {
	batches, fixes := benchWorkload(b, 42, 400)
	for _, shards := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(shards)+"shard", func(b *testing.B) { benchSlide(b, batches, fixes, shards) })
	}
}

// shiftBatches advances every batch (its fixes and its query time) by d,
// in place, so the same workload can be replayed against a warm tracker
// as the next stretch of stream time.
func shiftBatches(batches []stream.Batch, d time.Duration) {
	for i := range batches {
		batches[i].Query = batches[i].Query.Add(d)
		for j := range batches[i].Fixes {
			batches[i].Fixes[j].Time = batches[i].Fixes[j].Time.Add(d)
		}
	}
}

// BenchmarkSteadySlide measures the steady state the long-running
// deployment sits in: one warm tracking tier, vessels and window
// populated, replaying the workload as consecutive stretches of stream
// time. One op is one full 2 h replay (24 slides). Cold-start costs —
// slab growth, per-vessel state allocation, slice warm-up — are
// excluded, which is exactly what distinguishes this row from
// BenchmarkShardedSlide.
//
// The fleets run from the 400-vessel seed-42 one the earlier rows were
// measured on to the paper's N = 6425 (seed 1, 35 areas, ω = 1 h,
// β = 5 min), serial and at DefaultShards(): a 400-vessel tier's state
// fits in cache, so only the larger fleets show what a fix costs when it
// does not.
func BenchmarkSteadySlide(b *testing.B) {
	for _, c := range []struct {
		seed    int64
		vessels int
		shards  int
	}{
		{42, 400, 1},
		{1, 400, 1},
		{1, 1500, 1},
		{1, 6425, 1},
		{1, 6425, DefaultShards()},
	} {
		name := fmt.Sprintf("seed%d/N%d/%dshard", c.seed, c.vessels, c.shards)
		b.Run(name, func(b *testing.B) { benchSteady(b, c.seed, c.vessels, c.shards) })
	}
}

func benchSteady(b *testing.B, seed int64, vessels, shards int) {
	batches, fixes := benchWorkload(b, seed, vessels)
	span := 2 * time.Hour
	tr := NewSharded(DefaultParams(), stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}, shards)
	defer tr.Close()
	// Warm up: one full pass populates the fleet and fills the window.
	for _, bt := range batches {
		tr.Slide(bt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shiftBatches(batches, span)
		for _, bt := range batches {
			tr.Slide(bt)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fixes), "ns/fix")
	b.ReportMetric(float64(b.N*fixes)/b.Elapsed().Seconds(), "fixes/s")
}

// TestSteadyStateSlideAllocs is the allocation-free steady state gate:
// after the tracking tier has warmed (slab populated, scratch slices at
// their high-water marks, synopsis windows full), a slide must run
// allocation-free up to a small amortized constant — synopsis regrowth
// and stop-run reallocation are amortized, nothing is allocated
// per fix or per slide. Each shard count — and DefaultShards, what
// production runs — is gated plain, as cmd/serve runs a slide that
// waited for the feed (under the watchdog, every shard pooled), as it
// runs a slide tracked ahead (started by one Roll, finished by the
// next), and as it rolls one slide into the next.
func TestSteadyStateSlideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	batches := simBatches(t, 150, 3)
	// Drop the far-future drain batch; it evicts every vessel, which is
	// not a steady state.
	batches = batches[:len(batches)-1]
	warm := len(batches) - 12 // leave 12 slides (one full window) to measure
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	for _, shards := range []int{1, 2, DefaultShards()} {
		for _, mode := range []string{"plain", "watchdog", "ahead", "rollover"} {
			tier := NewSharded(DefaultParams(), window, shards)
			if mode != "plain" {
				tier.SetSlideTimeout(time.Minute)
			}
			slide := tier.Slide
			switch mode {
			case "ahead":
				slide = func(b stream.Batch) SlideResult {
					tier.Roll(&b)
					res, _, _ := tier.Roll(nil)
					return res
				}
			case "rollover":
				slide = func(b stream.Batch) SlideResult {
					res, _, _ := tier.Roll(&b)
					return res
				}
			}
			for _, b := range batches[:warm] {
				slide(b)
			}
			idx := warm
			const runs = 10 // AllocsPerRun adds one warm-up call
			allocs := testing.AllocsPerRun(runs, func() {
				slide(batches[idx])
				idx++
			})
			if idx != warm+runs+1 {
				t.Fatalf("shards=%d %s: measured %d slides, want %d", shards, mode, idx-warm, runs+1)
			}
			const maxAllocs = 10
			if allocs > maxAllocs {
				t.Errorf("shards=%d %s: steady-state slide allocates %.1f times, want <= %d", shards, mode, allocs, maxAllocs)
			}
			t.Logf("shards=%d %s: %.1f allocs per steady-state slide", shards, mode, allocs)
			tier.Close()
		}
	}
}
