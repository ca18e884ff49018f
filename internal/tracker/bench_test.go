package tracker

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/stream"
)

// benchWorkload is the benchmark fleet: seed 42, 400 vessels, 2 h, 5 min
// slides.
func benchWorkload(b *testing.B) (batches []stream.Batch, fixes int) {
	b.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Seed = 42
	cfg.Vessels = 400
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

// BenchmarkShardedSlide replays the workload through a cold tracking
// tier at 1, 2 and 4 shards.
func BenchmarkShardedSlide(b *testing.B) {
	batches, fixes := benchWorkload(b)
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
// vessel-map growth, per-vessel state allocation, slice warm-up — are
// excluded, which is exactly what distinguishes this row from
// BenchmarkShardedSlide.
func BenchmarkSteadySlide(b *testing.B) {
	batches, fixes := benchWorkload(b)
	span := 2 * time.Hour
	tr := NewSharded(DefaultParams(), stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}, 1)
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
// after the tracking tier has warmed (vessel map populated, scratch
// slices at their high-water marks, synopsis windows full), a slide must
// run allocation-free up to a small amortized constant — synopsis ring
// growth and stop-run reallocation are amortized, nothing is allocated
// per fix or per slide. Two shards is what production runs on a 2-core
// box (DefaultShards). Each shard count is gated plain and as cmd/serve
// runs it: self-heal on under the watchdog, every shard pooled and its
// input journaled. The journal's re-base snapshots every vessel once per
// cadence, so the gate sets a cadence longer than the run; what the
// healed slide may add is the journal's copy of each shard's input.
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
	for _, shards := range []int{1, 2} {
		for _, watchdog := range []bool{false, true} {
			tier := NewSharded(DefaultParams(), window, shards)
			if watchdog {
				tier.EnableSelfHeal(len(batches))
				tier.SetSlideTimeout(time.Minute)
			}
			for _, b := range batches[:warm] {
				tier.Slide(b)
			}
			idx := warm
			const runs = 10 // AllocsPerRun adds one warm-up call
			allocs := testing.AllocsPerRun(runs, func() {
				tier.Slide(batches[idx])
				idx++
			})
			tier.Close()
			if idx != warm+runs+1 {
				t.Fatalf("shards=%d watchdog=%v: measured %d slides, want %d", shards, watchdog, idx-warm, runs+1)
			}
			const maxAllocs = 10
			if allocs > maxAllocs {
				t.Errorf("shards=%d watchdog=%v: steady-state slide allocates %.1f times, want <= %d", shards, watchdog, allocs, maxAllocs)
			}
			t.Logf("shards=%d watchdog=%v: %.1f allocs per steady-state slide", shards, watchdog, allocs)
		}
	}
}
