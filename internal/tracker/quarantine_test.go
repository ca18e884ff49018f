package tracker

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/stream"
)

// The tier half of fault recovery: a faulted shard is quarantined and
// reported on the slide's result, and restoring the snapshot taken
// before the slide and sliding it again — what the pipeline's driver
// does from its newest checkpoint — yields the fault-free output.

// TestQuarantineShardPanicEquivalence is the tier-level chaos golden test: a
// shard worker panics on every single slide, the tier quarantines it
// and reports the fault, and restoring the slide's starting snapshot
// and sliding it again must give output byte-identical to the serial
// tracker's.
func TestQuarantineShardPanicEquivalence(t *testing.T) {
	batches := simBatches(t, 120, 2)
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}

	serial := NewSharded(params, window, 1)
	sharded := NewSharded(params, window, 4)
	defer sharded.Close()
	kills := 0
	killed := map[time.Time]bool{}
	sharded.SetFaultHook(func(shard int, q time.Time) {
		if shard == 1 && !killed[q] {
			killed[q] = true
			kills++
			panic("injected shard fault")
		}
	})

	for i, b := range batches {
		want := serial.Slide(b)
		before := sharded.Snapshot()
		faulted := sharded.Slide(b)
		if len(faulted.Faults) != 1 || faulted.Faults[0].Target != "tracker/1" {
			t.Fatalf("slide %d: fault records %+v, want tracker/1's", i, faulted.Faults)
		}
		if err := sharded.RestoreSnapshot(before); err != nil {
			t.Fatal(err)
		}
		got := sharded.Slide(b)
		if len(got.Faults) != 0 || got.LostFixes != 0 {
			t.Fatalf("slide %d replayed with faults: %+v", i, got.Faults)
		}
		comparePoints(t, i, "fresh", want.Fresh, got.Fresh)
		comparePoints(t, i, "delta", want.Delta, got.Delta)
	}
	if kills != len(batches) {
		t.Errorf("expected %d injected panics, hook fired %d times", len(batches), kills)
	}
	fs := sharded.FaultStats()
	if fs.Panics != kills || fs.Quarantined != 0 || fs.Failed != 0 || fs.DroppedFixes != 0 {
		t.Errorf("fault stats: got %+v, want Panics=%d and every shard back in service", fs, kills)
	}
	ws, gs := serial.Stats(), sharded.Stats()
	if ws.FixesIn != gs.FixesIn || ws.Critical != gs.Critical {
		t.Errorf("stats diverged: serial %+v, sharded %+v", ws, gs)
	}
}

// TestQuarantineShardStallRewind wedges one shard mid-run: the
// watchdog must quarantine it within the slide and report it, the tier
// must keep sliding with the remaining shards (dropping and counting
// the wedged shard's fixes), and restoring the snapshot taken before
// the stall and replaying the slides since must bring the tier state —
// and all subsequent output — back to the golden run.
func TestQuarantineShardStallRewind(t *testing.T) {
	batches := simBatches(t, 120, 2)
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	const stallShard, stallSlide = 2, 7

	serial := NewSharded(params, window, 1)
	sharded := NewSharded(params, window, 4)
	defer sharded.Close()
	sharded.SetSlideTimeout(50 * time.Millisecond)
	release := make(chan struct{})
	defer close(release)
	var stalled atomic.Bool
	sharded.SetFaultHook(func(shard int, q time.Time) {
		if shard == stallShard && q.Equal(batches[stallSlide].Query) && stalled.CompareAndSwap(false, true) {
			<-release
		}
	})

	var before Snapshot
	var want []SlideResult
	for i, b := range batches[:stallSlide+3] {
		w := serial.Slide(b)
		want = append(want, SlideResult{Fresh: slices.Clone(w.Fresh), Delta: slices.Clone(w.Delta)})
		got := sharded.Slide(b)
		if i == stallSlide-1 {
			before = sharded.Snapshot()
		}
		if i < stallSlide {
			comparePoints(t, i, "fresh", w.Fresh, got.Fresh)
			comparePoints(t, i, "delta", w.Delta, got.Delta)
		}
		if i == stallSlide {
			fs := sharded.FaultStats()
			if fs.Stalls != 1 || fs.Quarantined != 1 {
				t.Fatalf("slide %d: expected one stalled quarantined shard, got %+v", i, fs)
			}
			if q := got.Faults; len(q) != 1 || q[0].Target != "tracker/2" || q[0].Cause != "stall" {
				t.Fatalf("quarantine records: %+v", q)
			}
			if got.LostFixes == 0 {
				t.Fatal("the wedged shard's fixes of the slide should be reported lost")
			}
		}
	}
	// Slides after the stall route nothing to the wedged shard.
	if fs := sharded.FaultStats(); fs.DroppedFixes == 0 {
		t.Fatalf("fixes routed to the wedged shard should be counted dropped: %+v", fs)
	}
	// Restore the state before the stall and replay: from here the
	// tier must equal golden, the counters of the replayed slides too.
	if err := sharded.RestoreSnapshot(before); err != nil {
		t.Fatal(err)
	}
	if fs := sharded.FaultStats(); fs.Quarantined != 0 {
		t.Fatalf("after restore: %+v", fs)
	}
	for i := stallSlide; i < len(batches); i++ {
		if i >= len(want) {
			w := serial.Slide(batches[i])
			want = append(want, SlideResult{Fresh: slices.Clone(w.Fresh), Delta: slices.Clone(w.Delta)})
		}
		got := sharded.Slide(batches[i])
		comparePoints(t, i, "fresh", want[i].Fresh, got.Fresh)
		comparePoints(t, i, "delta", want[i].Delta, got.Delta)
	}
	ws, gs := serial.Stats(), sharded.Stats()
	if ws.FixesIn != gs.FixesIn || ws.Critical != gs.Critical || ws.Duplicates != gs.Duplicates {
		t.Errorf("stats diverged after the restore: serial %+v, sharded %+v", ws, gs)
	}
}

// TestQuarantineFenceAndReadmit covers the failure path: a panic leaves a
// complete quarantine record, Fence moves the shard to failed for good,
// a failed shard stays out of service without faulting again, and a
// snapshot restore re-admits it.
func TestQuarantineFenceAndReadmit(t *testing.T) {
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	sharded := NewSharded(params, window, 2)
	defer sharded.Close()

	sharded.SetFaultHook(func(shard int, _ time.Time) {
		if shard == 1 {
			panic("persistent fault")
		}
	})
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	res := sharded.Slide(stream.Batch{Query: start})
	if fs := sharded.FaultStats(); fs.Quarantined != 1 || fs.Panics != 1 {
		t.Fatalf("expected a quarantine after the panic, got %+v", fs)
	}
	q := res.Faults
	if len(q) != 1 || q[0].Cause != "panic" || !strings.Contains(q[0].Value, "persistent fault") || q[0].Stack == "" {
		t.Fatalf("quarantine record incomplete: %+v", q)
	}

	// Fenced: the shard moves to failed and stays out of service.
	sharded.Fence()
	fs := sharded.FaultStats()
	if fs.Quarantined != 0 || fs.Failed != 1 {
		t.Fatalf("after Fence: %+v", fs)
	}
	if res := sharded.Slide(stream.Batch{Query: start.Add(5 * time.Minute)}); len(res.Faults) != 0 {
		t.Fatalf("a failed shard must not fault again: %+v", res.Faults)
	}

	// A snapshot restore supersedes the failure and re-admits the shard.
	sharded.SetFaultHook(nil)
	if err := sharded.RestoreSnapshot(Snapshot{}); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if fs := sharded.FaultStats(); fs.Failed != 0 {
		t.Fatalf("restore should clear failed shards: %+v", fs)
	}
	if res := sharded.Slide(stream.Batch{Query: start.Add(10 * time.Minute)}); len(res.Faults) != 0 {
		t.Fatalf("re-admitted shard faulted: %+v", res.Faults)
	}
}

// TestLateFixAccounting exercises the out-of-order classification: a
// fix older than the last query but ahead of its vessel's clock is
// accepted and counted; a fix behind the vessel's clock is dropped and
// counted.
func TestLateFixAccounting(t *testing.T) {
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute}
	sharded := NewSharded(params, window, 2)
	defer sharded.Close()

	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	pos := func(k int) geo.Point { return geo.Point{Lon: 23.0 + float64(k)*0.001, Lat: 37.0} }
	fix := func(mmsi uint32, k int, at time.Time) ais.Fix {
		return ais.Fix{MMSI: mmsi, Pos: pos(k), Time: at}
	}

	// Slide 1: two vessels report normally.
	sharded.Slide(stream.Batch{Query: t0.Add(10 * time.Minute), Fixes: []ais.Fix{
		fix(100, 0, t0.Add(1*time.Minute)),
		fix(100, 1, t0.Add(5*time.Minute)),
		fix(200, 0, t0.Add(2*time.Minute)),
	}})

	// Slide 2: vessel 100 delivers a delayed fix from slide 1's range —
	// late but sequenceable (accepted) — and a stale duplicate-era fix
	// behind its clock (dropped). Vessel 200 reports normally.
	sharded.Slide(stream.Batch{Query: t0.Add(20 * time.Minute), Fixes: []ais.Fix{
		fix(100, 2, t0.Add(8*time.Minute)),  // late, accepted
		fix(100, 1, t0.Add(3*time.Minute)),  // behind vessel clock, dropped
		fix(200, 1, t0.Add(12*time.Minute)), // on time
	}})

	acc, drop := sharded.LateFixes()
	if acc != 1 || drop != 1 {
		t.Errorf("tier late counters: accepted=%d dropped=%d, want 1/1", acc, drop)
	}
	st := sharded.Stats()
	if st.LateAccepted != 1 || st.LateDropped != 1 {
		t.Errorf("merged stats: %+v, want LateAccepted=1 LateDropped=1", st)
	}
	// Dropped late fixes remain a subset of the duplicate counter.
	if st.Duplicates < st.LateDropped {
		t.Errorf("LateDropped must be a subset of Duplicates: %+v", st)
	}
}

// TestShedStationary verifies the degradation hook: with shedding on, a
// long-stopped vessel's jitter fixes are skipped (counted, clock still
// advancing) while a genuine departure re-enters the full path.
func TestShedStationary(t *testing.T) {
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute}
	sharded := NewSharded(params, window, 1)
	defer sharded.Close()

	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	base := geo.Point{Lon: 23.0, Lat: 37.0}
	var fixes []ais.Fix
	// Enough co-located slow fixes to open a stop episode.
	for k := 0; k < 3*params.M; k++ {
		fixes = append(fixes, ais.Fix{MMSI: 300, Pos: base, Time: t0.Add(time.Duration(k) * time.Minute)})
	}
	sharded.Slide(stream.Batch{Query: t0.Add(time.Duration(3*params.M) * time.Minute), Fixes: fixes})
	info, ok := sharded.Info(300)
	if !ok || !info.Stopped {
		t.Fatalf("expected a stopped vessel, got %+v ok=%v", info, ok)
	}

	sharded.SetShedStationary(true)
	next := t0.Add(time.Duration(3*params.M) * time.Minute)
	sharded.Slide(stream.Batch{Query: next.Add(10 * time.Minute), Fixes: []ais.Fix{
		{MMSI: 300, Pos: base, Time: next.Add(1 * time.Minute)},
		{MMSI: 300, Pos: base, Time: next.Add(2 * time.Minute)},
	}})
	if shed := sharded.ShedFixes(); shed != 2 {
		t.Errorf("shed fixes: %d, want 2", shed)
	}
	if st := sharded.Stats(); st.Shed != 2 {
		t.Errorf("stats shed: %+v", st)
	}
	sharded.SetShedStationary(false)
	sharded.Slide(stream.Batch{Query: next.Add(20 * time.Minute), Fixes: []ais.Fix{
		{MMSI: 300, Pos: base, Time: next.Add(11 * time.Minute)},
	}})
	if shed := sharded.ShedFixes(); shed != 2 {
		t.Errorf("shedding off must stop counting, got %d", shed)
	}
}
