package checkpoint

import (
	"testing"
	"time"

	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/stream"
)

// BenchmarkCheckpointSave measures the full checkpoint cost — snapshot
// capture plus atomic durable write — against a pipeline loaded with
// the 400-vessel bench workload (BenchmarkShardedSlide's scale), the number
// EXPERIMENTS.md reports as per-slide overhead.
func BenchmarkCheckpointSave(b *testing.B) {
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = 400
	cfg.Duration = 4 * time.Hour
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()

	sys := newPipeline(sim, 0)
	defer sys.Close()
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), testSlide)
	var cur feed.Cursor
	var lastQ time.Time
	slides := 0
	var slideTime time.Duration
	for {
		batch, ok := batcher.Next()
		if !ok {
			break
		}
		t0 := time.Now()
		rep := sys.ProcessBatch(batch)
		slideTime += time.Since(t0)
		for _, f := range batch.Fixes {
			cur.Note(f)
		}
		lastQ = rep.Query
		slides++
	}

	mgr, err := NewManager(Options{Dir: b.TempDir(), Keep: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := sys.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		st := &State{Query: lastQ, System: snap, Cursor: cur.Clone(), Slides: slides}
		if err := mgr.Save(st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, size := mgr.store.LastSave()
	b.ReportMetric(float64(size), "payload-bytes")
	b.ReportMetric(float64(slideTime.Nanoseconds())/float64(slides), "slide-ns")
}
