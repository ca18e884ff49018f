package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/stream"
)

// The generator's slide grid and closing lines must be the ones the
// system under test derives, or every latency sample is measured from
// the wrong line.
func TestInputIndexMatchesBatcher(t *testing.T) {
	w := workloads[2] // paced-direct: one-minute slides
	w.Vessels, w.Pairs = 40, 2
	in, err := generate(w, 7, 90*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b := stream.NewBatcher(ais.NewScanner(bytes.NewReader(in.data)), w.Slide)
	seen := 0
	for k := 0; ; k++ {
		batch, ok := b.Next()
		if !ok {
			if k != in.slides() {
				t.Fatalf("batcher closed %d slides, the index has %d", k, in.slides())
			}
			break
		}
		if k >= in.slides() {
			t.Fatalf("batcher closed more than the index's %d slides", in.slides())
		}
		if !batch.Query.Equal(in.query[k]) {
			t.Fatalf("slide %d: batcher query %s, index %s", k, batch.Query, in.query[k])
		}
		seen += len(batch.Fixes)
		if seen != in.closer[k] {
			t.Fatalf("slide %d: batcher has consumed %d fixes, the index closes it at fix %d", k, seen, in.closer[k])
		}
	}
	if seen != in.fixes() {
		t.Fatalf("batcher saw %d fixes of %d", seen, in.fixes())
	}
}

func TestPacedScheduleHasTwoRates(t *testing.T) {
	in := &input{unix: []int64{1000, 1000 + 600, 1000 + 1200, 1000 + 1200 + 1440}, end: make([]int, 4)}
	w := workload{Rho: 1440, Warmup: 20 * time.Minute, WarmupRho: 240}
	due := pacedSchedule(in, w)
	for i, want := range []time.Duration{0, 2500 * time.Millisecond, 5 * time.Second, 6 * time.Second, 6 * time.Second} {
		if got := due(i); got != want {
			t.Errorf("fix %d due at %s, want %s", i, got, want)
		}
	}
}
