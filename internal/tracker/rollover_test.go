package tracker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
)

// Rolling slide k+1 in before slide k is collected (Sharded.Roll) must
// not change a bit of the output. Each test here drives a tier the way
// the pipeline's look-ahead does — every slide rolled into the next,
// except the one a checkpoint is due after, and a faulted slide rewound
// to the newest checkpoint and replayed — and compares the
// TestTrackerDigestPinned digest of the slides it accepts with plain
// Slide's.

// rollShape is the fleet the rollover tests run: smaller under the race
// detector, which CI repeats them under.
func rollShape() (vessels, hours int) {
	if raceEnabled || testing.Short() {
		return 150, 3
	}
	return 400, 4
}

// rollShards are the shard counts every rollover test crosses.
func rollShards() []int { return []int{1, 3, DefaultShards()} }

// roller drives a tier through batches with rollover.
type roller struct {
	t     *testing.T
	tier  *Sharded
	every int // a checkpoint is taken after every every-th slide; nothing rolls past it
	// between runs after slide k's result is taken, with slide k+1 (if
	// any) rolled in and the result not yet hashed. It may read or
	// restore the tier; rewind reports that it restored the newest
	// checkpoint, which the run then replays from.
	between func(k int) (rewind bool)
	// faulted sees every result that carries faults, before the rewind.
	faulted func(k int, res SlideResult)
}

// run returns the digest of the slides the run accepts — each once,
// however often a rewind replays it — and the final counters, in
// trackerDigest's encoding.
func (r *roller) run(batches []stream.Batch) string {
	r.t.Helper()
	d := &digestWriter{h: sha256.New()}
	ckpt, ckptAt := r.tier.Snapshot(), 0
	accepted := 0 // slides hashed so far
	inFlight := false
	for k := 0; k < len(batches); {
		if !inFlight {
			r.tier.Roll(&batches[k])
		}
		due := (k+1)%r.every == 0
		var next *stream.Batch
		if k+1 < len(batches) && !due {
			next = &batches[k+1]
		}
		res, _, _ := r.tier.Roll(next)
		inFlight = next != nil
		if !res.Query.Equal(batches[k].Query) {
			r.t.Fatalf("slide %d: result for %v, want %v", k, res.Query, batches[k].Query)
		}
		rewind := len(res.Faults) > 0
		if rewind && r.faulted != nil {
			r.faulted(k, res)
		}
		if !rewind && r.between != nil {
			rewind = r.between(k)
		}
		if rewind {
			if err := r.tier.RestoreSnapshot(ckpt); err != nil {
				r.t.Fatal(err)
			}
			k, inFlight = ckptAt, false
			continue
		}
		if k == accepted {
			d.i64(res.Query.UnixNano())
			d.points("fresh", res.Fresh)
			d.points("delta", res.Delta)
			accepted++
		}
		k++
		if due {
			ckpt, ckptAt = r.tier.Snapshot(), k
		}
	}
	d.stats(r.tier.Stats())
	return hex.EncodeToString(d.h.Sum(nil))
}

// shardFixes counts the fixes of b routed to shard i of n.
func shardFixes(b stream.Batch, i, n int) int {
	c := 0
	for _, f := range b.Fixes {
		if ShardOf(f.MMSI, n) == i {
			c++
		}
	}
	return c
}

// TestRolloverMatchesSerial holds rollover byte-identical to plain
// Slide at 1, 3 and DefaultShards() shards, on both pinned seeds and
// windows, plain and under the watchdog, rolling through every slide
// and with a checkpoint every fourth.
func TestRolloverMatchesSerial(t *testing.T) {
	vessels, hours := rollShape()
	for _, seed := range []int64{1, 7} {
		batches := digestBatches(t, seed, vessels, hours)
		for _, window := range []time.Duration{30 * time.Minute, time.Hour} {
			for _, shards := range rollShards() {
				want, _ := trackerDigest(batches, window, shards)
				for _, watchdog := range []bool{false, true} {
					for _, every := range []int{len(batches) + 1, 4} {
						name := fmt.Sprintf("seed%d/ω=%v/shards=%d/watchdog=%v/every=%d", seed, window, shards, watchdog, every)
						tier := NewSharded(DefaultParams(), stream.WindowSpec{Range: window, Slide: 5 * time.Minute}, shards)
						if watchdog {
							tier.SetSlideTimeout(time.Minute)
						}
						got := (&roller{t: t, tier: tier, every: every}).run(batches)
						tier.Close()
						if got != want {
							t.Errorf("%s: rolled digest %s, plain %s", name, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRolloverShardPanic panics one shard in slide k while slide k+1 is
// rolled in. The faulted shard must never be handed k+1, its fixes of
// k+1 must be counted dropped, as for any shard already out of service,
// and the rewind to the newest checkpoint — which discards the rolled
// slide — must replay to plain Slide's digest.
func TestRolloverShardPanic(t *testing.T) {
	vessels, hours := rollShape()
	batches := digestBatches(t, 1, vessels, hours)
	window := stream.WindowSpec{Range: 30 * time.Minute, Slide: 5 * time.Minute}
	const faultSlide = 6
	for _, shards := range rollShards() {
		victim := 1 % shards
		want, _ := trackerDigest(batches, window.Range, shards)
		tier := NewSharded(DefaultParams(), window, shards)
		var fired, handedNext atomic.Int32
		var rewound atomic.Bool
		tier.SetFaultHook(func(shard int, q time.Time) {
			if shard != victim {
				return
			}
			if q.Equal(batches[faultSlide+1].Query) && fired.Load() == 1 && !rewound.Load() {
				handedNext.Add(1)
			}
			if q.Equal(batches[faultSlide].Query) && fired.CompareAndSwap(0, 1) {
				panic("injected shard fault")
			}
		})
		faults := 0
		got := (&roller{t: t, tier: tier, every: 4, faulted: func(k int, res SlideResult) {
			faults++
			if k != faultSlide || len(res.Faults) != 1 || res.Faults[0].Target != shardTarget(victim) {
				t.Fatalf("shards=%d: slide %d faulted with %+v, want slide %d on %s", shards, k, res.Faults, faultSlide, shardTarget(victim))
			}
			if fs, wantDrop := tier.FaultStats(), shardFixes(batches[k+1], victim, shards); fs.DroppedFixes != wantDrop || fs.Panics != 1 {
				t.Errorf("shards=%d: fault stats %+v after the faulted roll, want Panics=1 DroppedFixes=%d (the victim's fixes of the rolled slide)", shards, fs, wantDrop)
			}
			// Finish the rolled slide, so any job it handed out has run
			// before the rewind.
			tier.VesselCount()
			rewound.Store(true)
		}}).run(batches)
		if faults != 1 || handedNext.Load() != 0 {
			t.Errorf("shards=%d: %d faulted slides, victim handed the rolled slide %d times; want 1 and 0", shards, faults, handedNext.Load())
		}
		if got != want {
			t.Errorf("shards=%d: rolled digest across the panic %s, plain %s", shards, got, want)
		}
		tier.Close()
	}
}

// TestRolloverWatchdogStall wedges one shard in slide k, with slide k+1
// rolled in behind it: the watchdog quarantines the straggler, which
// is never handed k+1 (its fixes of k+1 are counted dropped); the shards
// that did finish k carry on with k+1, and the rewind replays to plain
// Slide's digest.
func TestRolloverWatchdogStall(t *testing.T) {
	vessels, hours := rollShape()
	batches := digestBatches(t, 7, vessels, hours)
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	const stallSlide = 7
	for _, shards := range rollShards() {
		victim := 2 % shards
		want, _ := trackerDigest(batches, window.Range, shards)
		tier := NewSharded(DefaultParams(), window, shards)
		tier.SetSlideTimeout(50 * time.Millisecond)
		release := make(chan struct{})
		var stalled, handedNext atomic.Int32
		var rewound atomic.Bool
		tier.SetFaultHook(func(shard int, q time.Time) {
			if shard != victim {
				return
			}
			if q.Equal(batches[stallSlide+1].Query) && stalled.Load() == 1 && !rewound.Load() {
				handedNext.Add(1)
			}
			if q.Equal(batches[stallSlide].Query) && stalled.CompareAndSwap(0, 1) {
				<-release
			}
		})
		faults := 0
		got := (&roller{t: t, tier: tier, every: 5, faulted: func(k int, res SlideResult) {
			faults++
			if k != stallSlide || len(res.Faults) != 1 || res.Faults[0].Target != shardTarget(victim) || res.Faults[0].Cause != "stall" {
				t.Fatalf("shards=%d: slide %d faulted with %+v, want a stall of %s in slide %d", shards, k, res.Faults, shardTarget(victim), stallSlide)
			}
			if res.LostFixes != shardFixes(batches[k], victim, shards) {
				t.Errorf("shards=%d: %d fixes reported lost, want the straggler's %d", shards, res.LostFixes, shardFixes(batches[k], victim, shards))
			}
			if fs, wantDrop := tier.FaultStats(), shardFixes(batches[k+1], victim, shards); fs.DroppedFixes != wantDrop || fs.Stalls != 1 {
				t.Errorf("shards=%d: fault stats %+v after the stalled roll, want Stalls=1 DroppedFixes=%d", shards, fs, wantDrop)
			}
			tier.VesselCount()
			rewound.Store(true)
		}}).run(batches)
		close(release)
		if faults != 1 || handedNext.Load() != 0 {
			t.Errorf("shards=%d: %d faulted slides, straggler handed the rolled slide %d times; want 1 and 0", shards, faults, handedNext.Load())
		}
		if got != want {
			t.Errorf("shards=%d: rolled digest across the stall %s, plain %s", shards, got, want)
		}
		tier.Close()
	}
}

// TestRolloverReadersAndRestore reads and restores the tier with two
// slides in flight — slide k's result held, slide k+1 rolled in: Stats,
// Infos and VesselCount finish k+1 early and keep its result for the
// next Roll, and a RestoreSnapshot discards it with the state it was
// tracked against. A goroutine reading beside the run the whole time
// lands anywhere in between. The accepted slides must hash to plain
// Slide's digest.
func TestRolloverReadersAndRestore(t *testing.T) {
	vessels, hours := rollShape()
	batches := digestBatches(t, 1, vessels, hours)
	window := stream.WindowSpec{Range: 30 * time.Minute, Slide: 5 * time.Minute}
	const restoreAt = 10
	for _, shards := range rollShards() {
		want, _ := trackerDigest(batches, window.Range, shards)
		tier := NewSharded(DefaultParams(), window, shards)
		tier.SetSlideTimeout(time.Minute)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tier.Stats()
				for _, v := range tier.Infos() {
					tier.Synopsis(v.MMSI)
					break
				}
			}
		}()
		restored := false
		got := (&roller{t: t, tier: tier, every: 4, between: func(k int) bool {
			switch k % 3 {
			case 0:
				tier.Stats()
			case 1:
				tier.Infos()
			case 2:
				tier.VesselCount()
			}
			if k == restoreAt && !restored {
				restored = true
				return true
			}
			return false
		}}).run(batches)
		close(stop)
		wg.Wait()
		if !restored {
			t.Fatalf("shards=%d: the run never reached slide %d", shards, restoreAt)
		}
		if got != want {
			t.Errorf("shards=%d: rolled digest with readers and a restore %s, plain %s", shards, got, want)
		}
		tier.Close()
	}
}
