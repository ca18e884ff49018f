package tracker

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/stream"
)

// TestSelfHealPanicEquivalence is the tier-level chaos golden test: a
// shard worker panics on every single slide, the tier recovers each
// panic with an in-slide journal re-run, and the merged output must
// stay byte-identical to the serial tracker — zero loss, no quarantine.
func TestSelfHealPanicEquivalence(t *testing.T) {
	batches := simBatches(t, 120, 2)
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}

	serial := NewSharded(params, window, 1)
	sharded := NewSharded(params, window, 4)
	defer sharded.Close()
	sharded.EnableSelfHeal(6)
	kills := 0
	sharded.SetFaultHook(func(shard, slide, attempt int) {
		if shard == 1 && attempt == 0 {
			kills++
			panic("injected shard fault")
		}
	})

	for i, b := range batches {
		want := serial.Slide(b)
		got := sharded.Slide(b)
		comparePoints(t, i, "fresh", want.Fresh, got.Fresh)
		comparePoints(t, i, "delta", want.Delta, got.Delta)
	}
	if kills != len(batches) {
		t.Errorf("expected %d injected panics, hook fired %d times", len(batches), kills)
	}
	fs := sharded.FaultStats()
	if fs.Panics != kills || fs.Retries != kills {
		t.Errorf("fault stats: got %+v, want Panics=Retries=%d", fs, kills)
	}
	if fs.Quarantined != 0 || fs.DroppedFixes != 0 || fs.GapSlides != 0 {
		t.Errorf("lossless recovery expected, got %+v", fs)
	}
	ws, gs := serial.Stats(), sharded.Stats()
	if ws.FixesIn != gs.FixesIn || ws.Critical != gs.Critical {
		t.Errorf("stats diverged: serial %+v, sharded %+v", ws, gs)
	}
}

// TestSelfHealStallQuarantineRepair wedges one shard mid-run: the
// watchdog must quarantine it within the slide, the tier must keep
// sliding with the remaining shards (dropping and counting the wedged
// shard's fixes), and RepairShard must replay the journal so that the
// tier state — and all subsequent output — converges back to the
// golden run.
func TestSelfHealStallQuarantineRepair(t *testing.T) {
	batches := simBatches(t, 120, 2)
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	const stallShard, stallSlide = 2, 8

	serial := NewSharded(params, window, 1)
	sharded := NewSharded(params, window, 4)
	defer sharded.Close()
	sharded.EnableSelfHeal(6)
	sharded.SetSlideTimeout(50 * time.Millisecond)
	release := make(chan struct{})
	defer close(release)
	var once sync.Once
	sharded.SetFaultHook(func(shard, slide, attempt int) {
		if shard == stallShard && slide == stallSlide {
			once.Do(func() { <-release })
		}
	})

	repaired := false
	for i, b := range batches {
		want := serial.Slide(b)
		got := sharded.Slide(b)
		if i+1 < stallSlide || repaired {
			comparePoints(t, i, "fresh", want.Fresh, got.Fresh)
			comparePoints(t, i, "delta", want.Delta, got.Delta)
		}
		if i+1 == stallSlide {
			fs := sharded.FaultStats()
			if fs.Stalls != 1 || fs.Quarantined != 1 {
				t.Fatalf("slide %d: expected one stalled quarantined shard, got %+v", i, fs)
			}
			q := sharded.Quarantined()
			if len(q) != 1 || q[0].Target != "tracker/2" || q[0].Cause != "stall" {
				t.Fatalf("quarantine records: %+v", q)
			}
			if fs.DroppedFixes == 0 {
				t.Fatal("wedged shard's fixes should be counted as dropped")
			}
		}
		// Let the shard miss a couple of slides before the repair, then
		// re-admit it; from here the replayed state must equal golden.
		if i+1 == stallSlide+2 {
			if err := sharded.RepairShard(stallShard); err != nil {
				t.Fatalf("RepairShard: %v", err)
			}
			repaired = true
			if fs := sharded.FaultStats(); fs.Quarantined != 0 || fs.Repairs != 1 {
				t.Fatalf("after repair: %+v", fs)
			}
		}
	}
	// Replay reprocessed every journaled fix, so even the counters of
	// the quarantine window are reconstructed.
	ws, gs := serial.Stats(), sharded.Stats()
	if ws.FixesIn != gs.FixesIn || ws.Critical != gs.Critical || ws.Duplicates != gs.Duplicates {
		t.Errorf("stats diverged after repair: serial %+v, sharded %+v", ws, gs)
	}
	if fs := sharded.FaultStats(); fs.GapSlides != 0 {
		t.Errorf("journal should not have gapped: %+v", fs)
	}
}

// TestSelfHealRepairErrors covers the failure modes of RepairShard and
// the give-up path.
func TestSelfHealRepairErrors(t *testing.T) {
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	sharded := NewSharded(params, window, 2)
	defer sharded.Close()
	sharded.EnableSelfHeal(4)

	if err := sharded.RepairShard(0); err == nil || !strings.Contains(err.Error(), "not quarantined") {
		t.Fatalf("repairing a healthy shard: %v", err)
	}
	if err := sharded.RepairShard(9); err == nil {
		t.Fatal("repairing an out-of-range shard should fail")
	}

	// Force a quarantine via a double panic (live + re-run attempt).
	sharded.SetFaultHook(func(shard, slide, attempt int) {
		if shard == 1 {
			panic("persistent fault")
		}
	})
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sharded.Slide(stream.Batch{Query: start})
	if fs := sharded.FaultStats(); fs.Quarantined != 1 || fs.Panics != 2 {
		t.Fatalf("expected quarantine after double panic, got %+v", fs)
	}
	q := sharded.Quarantined()
	if len(q) != 1 || q[0].Cause != "panic" || !strings.Contains(q[0].Value, "persistent fault") || q[0].Stack == "" {
		t.Fatalf("quarantine record incomplete: %+v", q)
	}

	// Give up: the shard moves to failed and stays out of service.
	sharded.AbandonShard(1)
	fs := sharded.FaultStats()
	if fs.Quarantined != 0 || fs.Failed != 1 {
		t.Fatalf("after abandon: %+v", fs)
	}
	sharded.SetFaultHook(nil)
	sharded.Slide(stream.Batch{Query: start.Add(5 * time.Minute)})
	if len(sharded.Quarantined()) != 0 {
		t.Fatal("failed shard must not re-enter quarantine")
	}

	// A snapshot restore supersedes the failure and re-admits the shard.
	if err := sharded.RestoreSnapshot(Snapshot{}); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if fs := sharded.FaultStats(); fs.Failed != 0 {
		t.Fatalf("restore should clear failed shards: %+v", fs)
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

// TestSelfHealReplaySheds re-runs a panicked slide while overload
// shedding is on: the replay must shed exactly the fixes the live slide
// would have, so the repaired shard's state and counters equal those of
// a tier that never panicked.
func TestSelfHealReplaySheds(t *testing.T) {
	params := DefaultParams()
	window := stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute}
	const stopped = uint32(300)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	base := geo.Point{Lon: 23.0, Lat: 37.0}
	var dock []ais.Fix
	for k := 0; k < 3*params.M; k++ {
		dock = append(dock, ais.Fix{MMSI: stopped, Pos: base, Time: t0.Add(time.Duration(k) * time.Minute)})
	}
	next := t0.Add(time.Duration(3*params.M) * time.Minute)
	slides := []stream.Batch{
		{Query: next, Fixes: dock},
		{Query: next.Add(10 * time.Minute), Fixes: []ais.Fix{
			{MMSI: stopped, Pos: base, Time: next.Add(1 * time.Minute)},
			{MMSI: stopped, Pos: base, Time: next.Add(2 * time.Minute)},
		}},
	}

	run := func(faulty bool) *Sharded {
		s := NewSharded(params, window, 2)
		t.Cleanup(s.Close)
		s.EnableSelfHeal(4)
		if faulty {
			s.SetFaultHook(func(shard, slide, attempt int) {
				if shard == ShardOf(stopped, 2) && slide == 2 && attempt == 0 {
					panic("injected shard fault")
				}
			})
		}
		s.Slide(slides[0])
		s.SetShedStationary(true)
		s.Slide(slides[1])
		return s
	}
	want, got := run(false), run(true)
	if fs := got.FaultStats(); fs.Retries != 1 || fs.Quarantined != 0 {
		t.Fatalf("expected one lossless retry, got %+v", fs)
	}
	if ws, gs := want.Stats(), got.Stats(); ws.Shed != 2 || gs.Shed != ws.Shed || gs.FixesIn != ws.FixesIn {
		t.Errorf("shed counters after the retry: got %+v, want %+v (Shed 2)", gs, ws)
	}
	if !reflect.DeepEqual(want.Snapshot(), got.Snapshot()) {
		t.Error("replayed shard state differs from the never-panicked tier's")
	}
}

// TestJournalMatchesLiveShard checks the self-heal journal against the
// live shards after every slide: each shard rebuilt from its journal
// base plus the journaled slides must hold exactly the live shard's
// vessel state and counters. The re-base cadence is short (3), so most
// checks replay across a recycled base and recycled slide buffers; the
// window is short enough that silent vessels are evicted; one shard
// panics every seventh slide, so the journal also rebuilds the shards
// it later checks. Each shard is rebuilt twice, with the first rebuild
// scribbled over in between, which catches a rebuild that aliases the
// base instead of copying out of it.
func TestJournalMatchesLiveShard(t *testing.T) {
	batches := simBatches(t, 50, 3)
	batches = batches[:len(batches)-1] // the drain slide evicts everything at once
	window := stream.WindowSpec{Range: 20 * time.Minute, Slide: 5 * time.Minute}
	for _, shards := range []int{1, 2, 4} {
		for _, watchdog := range []bool{false, true} {
			tier := NewSharded(DefaultParams(), window, shards)
			tier.EnableSelfHeal(3)
			if watchdog {
				tier.SetSlideTimeout(time.Minute)
			}
			tier.SetFaultHook(func(shard, slide, attempt int) {
				if slide%7 == 0 && shard == slide%shards && attempt == 0 {
					panic("injected shard fault")
				}
			})
			evicted := false
			prev := map[uint32]bool{}
			for k, b := range batches {
				tier.Slide(b)
				cur := map[uint32]bool{}
				for i, live := range tier.shards {
					want := shardState(live)
					for _, vs := range want.Vessels {
						cur[vs.MMSI] = true
					}
					for attempt := 0; attempt < 2; attempt++ {
						rebuilt, _, qr := tier.replayShard(i, nil, false)
						if qr != nil {
							t.Fatalf("shards=%d watchdog=%v slide %d: replay of shard %d panicked: %s", shards, watchdog, k, i, qr.Value)
						}
						if got := shardState(rebuilt); !reflect.DeepEqual(got, want) {
							t.Fatalf("shards=%d watchdog=%v slide %d: shard %d rebuilt from its journal (attempt %d) differs from the live shard", shards, watchdog, k, i, attempt)
						}
						if rebuilt.lastQueryNS != live.lastQueryNS || rebuilt.haveLastQ != live.haveLastQ {
							t.Fatalf("shards=%d watchdog=%v slide %d: shard %d rebuilt with query clock %d/%v, live %d/%v",
								shards, watchdog, k, i, rebuilt.lastQueryNS, rebuilt.haveLastQ, live.lastQueryNS, live.haveLastQ)
						}
						scribble(rebuilt)
					}
				}
				for mmsi := range prev {
					evicted = evicted || !cur[mmsi]
				}
				prev = cur
			}
			st, fs := tier.Stats(), tier.FaultStats()
			tier.Close()
			if st.ByType[EventStopStart] == 0 || st.ByType[EventGapStart] == 0 || st.ByType[EventSlowStart] == 0 || !evicted {
				t.Fatalf("shards=%d watchdog=%v: the fleet must stop, go slow, go silent and be evicted: %+v evicted=%v", shards, watchdog, st.ByType, evicted)
			}
			if fs.Retries == 0 || fs.Quarantined != 0 {
				t.Fatalf("shards=%d watchdog=%v: want lossless in-slide retries, got %+v", shards, watchdog, fs)
			}
		}
	}
}

// shardState is one shard's vessel state and counters in Snapshot form.
func shardState(tr *shard) Snapshot {
	snap := Snapshot{Stats: tr.stats}
	for mmsi, st := range tr.vessels {
		snap.Vessels = append(snap.Vessels, snapshotVessel(mmsi, st))
	}
	slices.SortFunc(snap.Vessels, func(a, b VesselSnapshot) int { return cmp.Compare(a.MMSI, b.MMSI) })
	return snap
}

// scribble overwrites every slice element and counter of a shard, so a
// later rebuild that shares memory with this one shows the damage.
func scribble(tr *shard) {
	for _, st := range tr.vessels {
		clear(st.recent)
		clear(st.recentTurns)
		clear(st.stopRun)
		clear(st.slowRun)
		st.synopsis.Reset()
	}
	clear(tr.stats.ByType)
}
