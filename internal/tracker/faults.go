package tracker

import (
	"fmt"
	"time"

	"repro/internal/supervise"
)

// Fault isolation for the sharded tier. A panic in a shard worker, or a
// shard that outlives the slide watchdog, does not kill the process: the
// shard is quarantined — left out of the slide's merge and of every
// read, its fixes dropped — and the slide's SlideResult carries the
// quarantine record. The tier repairs nothing itself. The pipeline's
// driver recovers by restoring the newest checkpoint, which replaces
// every down shard with a fresh one (RestoreSnapshot), and replaying the
// stream from its cursor (checkpoint.Run). A shard that faults again
// before that replay is through is fenced for good (Fence).

// DefaultJournalSlides is kept so that callers written against the
// removed per-shard repair journals still compile; nothing reads it.
const DefaultJournalSlides = 8

// Down-state of a shard.
const (
	shardUp          = 0
	shardQuarantined = 1 // faulted; out of service until a restore
	shardFailed      = 2 // fenced for good; out of service until a restore
)

// EnableSelfHeal is kept so that callers written against the removed
// per-shard repair journals still compile. It does nothing: panic
// capture is always on, and recovery is a checkpoint restore.
func (s *Sharded) EnableSelfHeal(int) {}

// SetSlideTimeout arms the per-slide stall watchdog: every shard runs
// on the pool, and one that has not finished its slide within d is
// quarantined and its pool worker replaced. Zero disables the watchdog.
// It must be called before the first Slide.
func (s *Sharded) SetSlideTimeout(d time.Duration) { s.timeout = d }

// SetFaultHook installs a chaos-injection hook called at the start of
// every shard slide with the shard index and the slide's query time.
// The hook may panic — recovered and handled like any shard panic — or
// block, which the stall watchdog converts into a quarantine. Pass nil
// to remove.
func (s *Sharded) SetFaultHook(fn func(shard int, q time.Time)) {
	if fn == nil {
		s.faultHook.Store(nil)
		return
	}
	s.faultHook.Store(&fn)
}

// FaultStats is the tier's fault-handling counter snapshot. All fields
// are served from atomics, so it is safe to call from any goroutine.
type FaultStats struct {
	Panics       int // shard panics recovered
	Stalls       int // shards quarantined by the slide watchdog
	Quarantined  int // shards currently quarantined
	Failed       int // shards currently fenced for good
	DroppedFixes int // fixes routed to a shard already out of service
}

// FaultStats returns the current fault counters.
func (s *Sharded) FaultStats() FaultStats {
	return FaultStats{
		Panics:       int(s.panics.Load()),
		Stalls:       int(s.stalls.Load()),
		Quarantined:  int(s.quarCount.Load()),
		Failed:       int(s.failedCount.Load()),
		DroppedFixes: int(s.dropped.Load()),
	}
}

// quarantineShard takes a shard out of service and records why on the
// result of the slide whose buffers are bf. Its input buffer there is
// left to any goroutine still holding it (a fresh one is allocated on
// next use), and its fixes for this slide are counted on the result:
// whether they are lost depends on whether the driver replays the
// slide.
func (s *Sharded) quarantineShard(bf *slideBufs, i int, q supervise.Quarantine) {
	s.down[i] = shardQuarantined
	s.quarCount.Add(1)
	bf.skip[i] = true
	s.faults = append(s.faults, q)
	s.faultFixes += len(bf.in[i].recs)
	bf.in[i] = shardIn{}
}

// Fence moves every quarantined shard to failed: out of service for
// good, until a snapshot restore. The driver fences a shard that faults
// again while the slides before its first fault are being replayed. A
// slide in flight keeps running; what it quarantines is its own slide's
// fault.
func (s *Sharded) Fence() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, d := range s.down {
		if d == shardQuarantined {
			s.down[i] = shardFailed
			s.quarCount.Add(-1)
			s.failedCount.Add(1)
		}
	}
}

// readmit puts every shard back in service ahead of a snapshot restore,
// replacing down shards outright: a wedged goroutine may still be
// mutating them.
func (s *Sharded) readmit() {
	for i, d := range s.down {
		if d == shardUp {
			continue
		}
		if d == shardQuarantined {
			s.quarCount.Add(-1)
		} else {
			s.failedCount.Add(-1)
		}
		tr := s.newShard()
		s.wireShared(tr)
		s.shards[i] = tr
		s.bufs[0].in[i], s.bufs[1].in[i] = shardIn{}, shardIn{}
		s.down[i] = shardUp
	}
}

// shardTarget names shard i in the quarantine namespace.
func shardTarget(i int) string { return fmt.Sprintf("tracker/%d", i) }
