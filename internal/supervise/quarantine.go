// Package supervise holds the quarantine record: partitions that panic
// or wedge are quarantined by their tier instead of killing the
// process, and the record says who, why and what the failure looked
// like. Recovery is a checkpoint restore and replay (core, checkpoint).
//
// The package depends only on the standard library, so every tier
// (tracker shards, the recognizer, the MOD store) can share its types
// without import cycles.
package supervise

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Quarantine describes one out-of-service pipeline partition: who it
// is, why it was taken out, and what the failure looked like.
type Quarantine struct {
	// Target names the partition:
	// "tracker/3" for a tracker shard, "recognizer" for the CE
	// recognizer, "store" for the MOD archival store.
	Target string
	// Cause is "panic" for a recovered panic, "stall" for a watchdog
	// timeout.
	Cause string
	// Value is the rendered panic value; empty for stalls.
	Value string
	// Stack is the goroutine stack captured at the recovery site; empty
	// for stalls (the wedged goroutine's stack is not reachable).
	Stack string
	// Since is when the partition was quarantined.
	Since time.Time
}

// Panicked records a panic recovered from target, with the stack of
// the recovering goroutine; call it from the deferred recover.
func Panicked(target string, v any) Quarantine {
	return Quarantine{Target: target, Cause: "panic", Value: fmt.Sprint(v), Stack: string(debug.Stack()), Since: time.Now()}
}

// Stalled records a watchdog timeout of target.
func Stalled(target string) Quarantine {
	return Quarantine{Target: target, Cause: "stall", Since: time.Now()}
}

// String renders the quarantine record for logs and health output.
func (q Quarantine) String() string {
	if q.Cause == "panic" {
		return fmt.Sprintf("%s: panic: %s", q.Target, q.Value)
	}
	return fmt.Sprintf("%s: %s", q.Target, q.Cause)
}
