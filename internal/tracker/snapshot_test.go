package tracker

import (
	"testing"
	"time"

	"repro/internal/stream"
)

// TestSnapshotRestoreEquivalence is the tracker-level kill-and-restore
// golden test: run a seeded fleet to an arbitrary slide, snapshot, build
// a fresh tier (same or different shard count), restore, and finish the
// run — every subsequent fresh/delta stream and the final statistics
// must be byte-identical to the uninterrupted run. Two cases go further:
// one kills after evictions have put slots on the victim's free lists
// (a 30 min window), and one restores into a tier that already holds
// state of its own, evicted vessels and free slots included.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	batches := simBatches(t, 120, 2)
	params := DefaultParams()
	hour := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	halfHour := stream.WindowSpec{Range: 30 * time.Minute, Slide: 5 * time.Minute}

	for _, tc := range []struct {
		name            string
		fromShards, to  int
		killAfterSlides int
		window          stream.WindowSpec
		dirtySlides     int // slides the restored tier runs before the restore
	}{
		{"same-shard-count", 4, 4, len(batches) / 2, hour, 0},
		{"reshard-up", 2, 7, len(batches) / 3, hour, 0},
		{"reshard-down", 7, 1, 2 * len(batches) / 3, hour, 0},
		{"kill-at-first-slide", 3, 3, 1, hour, 0},
		// The kill points and the used tier's run are where the seeded
		// fleet has evicted vessels and left their slots free.
		{"kill-after-evictions", 3, 2, 14, halfHour, 0},
		{"restore-into-used-tier", 2, 3, 20, halfHour, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			window := tc.window
			uninterrupted := NewSharded(params, window, tc.fromShards)
			defer uninterrupted.Close()
			victim := NewSharded(params, window, tc.fromShards)
			defer victim.Close()

			var snap Snapshot
			for i, b := range batches[:tc.killAfterSlides] {
				want := uninterrupted.Slide(b)
				wantFresh := append([]CriticalPoint(nil), want.Fresh...)
				wantDelta := append([]CriticalPoint(nil), want.Delta...)
				got := victim.Slide(b)
				comparePoints(t, i, "fresh", wantFresh, got.Fresh)
				comparePoints(t, i, "delta", wantDelta, got.Delta)
			}
			snap = victim.Snapshot()
			if tc.window == halfHour && freeSlots(victim) == 0 {
				t.Fatal("no slot on a free list at the kill point; the case tests nothing")
			}

			restored := NewSharded(params, window, tc.to)
			defer restored.Close()
			if tc.dirtySlides > 0 {
				for _, b := range batches[:tc.dirtySlides] {
					restored.Slide(b)
				}
				if restored.VesselCount() == 0 || freeSlots(restored) == 0 {
					t.Fatal("the tier restored into holds no vessel or no free slot")
				}
			}
			if err := restored.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}

			var critical int
			for i, b := range batches[tc.killAfterSlides:] {
				want := uninterrupted.Slide(b)
				wantFresh := append([]CriticalPoint(nil), want.Fresh...)
				wantDelta := append([]CriticalPoint(nil), want.Delta...)
				got := restored.Slide(b)
				comparePoints(t, tc.killAfterSlides+i, "fresh", wantFresh, got.Fresh)
				comparePoints(t, tc.killAfterSlides+i, "delta", wantDelta, got.Delta)
				critical += len(got.Fresh)
			}
			if critical == 0 {
				t.Fatal("post-restore run produced no critical points; equivalence vacuous")
			}

			wantStats, gotStats := uninterrupted.Stats(), restored.Stats()
			if wantStats.FixesIn != gotStats.FixesIn || wantStats.Critical != gotStats.Critical ||
				wantStats.Duplicates != gotStats.Duplicates || wantStats.Outliers != gotStats.Outliers {
				t.Errorf("stats differ after restore: %+v vs %+v", gotStats, wantStats)
			}
			for k, v := range wantStats.ByType {
				if gotStats.ByType[k] != v {
					t.Errorf("ByType[%v] = %d, want %d", k, gotStats.ByType[k], v)
				}
			}

			si, gi := uninterrupted.Infos(), restored.Infos()
			if len(si) != len(gi) {
				t.Fatalf("Infos length %d != %d after restore", len(gi), len(si))
			}
			for i := range si {
				if si[i] != gi[i] {
					t.Errorf("Infos[%d] differs after restore: %+v vs %+v", i, gi[i], si[i])
				}
			}
		})
	}
}

// freeSlots counts the slots on a tier's free lists.
func freeSlots(s *Sharded) int {
	s.settle()
	defer s.mu.Unlock()
	n := 0
	for _, sh := range s.shards {
		n += len(sh.free)
	}
	return n
}

// TestSnapshotIndependentOfLiveState verifies the snapshot deep-copies:
// sliding the source tier after Snapshot must not change the snapshot.
func TestSnapshotIndependentOfLiveState(t *testing.T) {
	batches := simBatches(t, 40, 1)
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	s := NewSharded(DefaultParams(), window, 2)
	defer s.Close()

	mid := len(batches) / 2
	for _, b := range batches[:mid] {
		s.Slide(b)
	}
	snap := s.Snapshot()
	before := len(snap.Vessels)
	fixesIn := snap.Stats.FixesIn
	for _, b := range batches[mid:] {
		s.Slide(b)
	}
	if len(snap.Vessels) != before || snap.Stats.FixesIn != fixesIn {
		t.Fatal("snapshot mutated by subsequent slides")
	}

	// Restoring the stale snapshot must still yield exactly the mid-run
	// state: replay the tail and compare against a reference that never
	// crashed.
	ref := NewSharded(DefaultParams(), window, 2)
	defer ref.Close()
	for _, b := range batches[:mid] {
		ref.Slide(b)
	}
	restored := NewSharded(DefaultParams(), window, 3)
	defer restored.Close()
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for i, b := range batches[mid:] {
		want := ref.Slide(b)
		wantFresh := append([]CriticalPoint(nil), want.Fresh...)
		got := restored.Slide(b)
		comparePoints(t, mid+i, "fresh", wantFresh, got.Fresh)
	}
}

// TestRestoreRejectsDuplicateVessel guards the snapshot integrity check.
func TestRestoreRejectsDuplicateVessel(t *testing.T) {
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	s := NewSharded(DefaultParams(), window, 2)
	defer s.Close()
	snap := Snapshot{
		Vessels: []VesselSnapshot{{MMSI: 42}, {MMSI: 42}},
		Stats:   Stats{ByType: map[EventType]int{}},
	}
	if err := s.RestoreSnapshot(snap); err == nil {
		t.Fatal("duplicate vessel accepted")
	}
}
