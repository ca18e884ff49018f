package alertlog

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TailOptions configures a Tailer.
type TailOptions struct {
	// MinPoll/MaxPoll bound the idle wait. While the directory watch is
	// armed the tailer sleeps until the kernel reports a change and
	// MaxPoll is only the backstop. While it is not (directory not
	// created yet, no notification on this platform or filesystem) they
	// bound the polling ladder: after an empty poll the wait doubles
	// from MinPoll up to MaxPoll, and resets on the first delivered
	// batch (defaults 5ms / 250ms).
	MinPoll time.Duration
	MaxPoll time.Duration
	// MaxBatch bounds one poll's delivery (≤ 0: 1024 records).
	MaxBatch int
}

// TailerStats is one replica's tailing accounting.
type TailerStats struct {
	// Applied is the newest sequence delivered to the sink.
	Applied uint64 `json:"applied"`
	// Skipped counts sequences the reader had to jump (pruned or
	// corrupt ranges) — loss surfaced, never hidden.
	Skipped uint64 `json:"skipped"`
	Polls   uint64 `json:"polls"`
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"`
	Errors  uint64 `json:"errors"`
	// NotifyWakeups and TimerWakeups count what ended Run's waits: a
	// directory event, or the timer (the backstop while the watch is
	// armed, the polling ladder while it is not).
	NotifyWakeups uint64 `json:"notify_wakeups"`
	TimerWakeups  uint64 `json:"timer_wakeups"`
	// WatchErrors counts failed attempts to arm the directory watch and
	// armed watches given up (dropped by the kernel, or found not to
	// report this directory's changes); Notify reports whether one is
	// armed now (false: Run is on the polling ladder).
	WatchErrors uint64 `json:"watch_errors"`
	Notify      bool   `json:"notify"`
}

// Tailer drives one replica: it follows the log from its last applied
// sequence and hands each batch to the sink (the replica hub's
// PublishEnvelopes) in order, woken by the kernel when the log
// directory changes and falling back to polling with backoff where it
// cannot be. One goroutine runs Run; the stats are safe to read
// concurrently.
type Tailer struct {
	dir  string
	sink func([]serve.Envelope)
	opt  TailOptions
	// arm is armWatch; tests substitute a failing one.
	arm func(dir string, wake chan<- struct{}) (*dirWatch, error)

	mu sync.Mutex
	r  *Reader
	st TailerStats
}

// NewTailer returns a tailer resuming after afterSeq (0 = from the
// oldest retained record).
func NewTailer(dir string, afterSeq uint64, sink func([]serve.Envelope), opt TailOptions) *Tailer {
	if opt.MinPoll <= 0 {
		opt.MinPoll = 5 * time.Millisecond
	}
	if opt.MaxPoll <= 0 {
		opt.MaxPoll = 250 * time.Millisecond
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 1024
	}
	return &Tailer{
		dir:  dir,
		sink: sink,
		opt:  opt,
		arm:  armWatch,
		r:    NewReader(dir, afterSeq),
	}
}

// Poll performs one read-and-deliver step, returning how many records
// it applied. Tests drive it directly for determinism; Run loops it.
func (t *Tailer) Poll() (int, error) {
	t.mu.Lock()
	batch, err := t.r.Next(t.opt.MaxBatch)
	t.st.Polls++
	if err != nil {
		t.st.Errors++
	}
	if len(batch) > 0 {
		t.st.Batches++
		t.st.Records += uint64(len(batch))
		t.st.Applied = batch[len(batch)-1].Seq
	}
	t.st.Skipped = t.r.Skipped()
	t.mu.Unlock()
	if len(batch) > 0 {
		t.sink(batch)
	}
	return len(batch), err
}

// deafAfter is how many consecutive backstop polls may find records no
// event announced before Run concludes that events do not reach this
// directory (a network or FUSE filesystem arms without error and then
// reports only local changes) and polls for good. One such poll can be
// a timer that fired in the instant between a write and its event.
const deafAfter = 3

// Run tails until ctx is done. Each turn is a Poll followed by a wait
// for whichever comes first: a change in the log directory, the timer,
// or ctx. The watch is armed before the Poll it precedes and its events
// coalesce into one buffered token, so a change that lands during a
// Poll leaves its token behind and the wait returns at once — there is
// no window in which a wake-up can be lost. Armed, a poll that came
// back short of MaxBatch has drained the log and the timer is only the
// MaxPoll backstop; not armed, Run retries arming on every turn and
// otherwise walks the MinPoll..MaxPoll ladder.
func (t *Tailer) Run(ctx context.Context) {
	// Capacity 1 is the coalescing: any number of events between two
	// polls are one "poll now".
	wake := make(chan struct{}, 1)
	var w *dirWatch
	defer func() {
		if w != nil {
			w.Close()
		}
		t.mu.Lock()
		t.st.Notify = false
		t.r.Close()
		t.mu.Unlock()
	}()
	backoff := t.opt.MinPoll
	byTimer := false // the last wait ended on the timer
	missed := 0      // consecutive backstop polls that found unannounced records
	for ctx.Err() == nil {
		if w == nil && missed < deafAfter {
			w = t.tryArm(wake)
		}
		n, err := t.Poll()
		if w != nil && byTimer && n > 0 {
			if missed++; missed == deafAfter {
				t.disarm(w)
				w = nil // for good: nothing resets missed without a watch
			}
		}
		byTimer = false
		if err == nil && (n >= t.opt.MaxBatch || (w == nil && n > 0)) {
			// More may be waiting: a full batch, or — with no watch to
			// say otherwise — any batch at all.
			backoff = t.opt.MinPoll
			continue
		}
		wait := t.opt.MaxPoll
		var lost <-chan struct{}
		if w != nil {
			lost = w.Lost()
		} else {
			wait = backoff
			if backoff *= 2; backoff > t.opt.MaxPoll {
				backoff = t.opt.MaxPoll
			}
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
		case <-wake:
			missed = 0
			t.count(&t.st.NotifyWakeups)
		case <-timer.C:
			byTimer = true
			t.count(&t.st.TimerWakeups)
		case <-lost:
			// The kernel dropped the watch (directory removed): back to
			// the ladder until it can be armed again.
			t.disarm(w)
			w = nil
			backoff = t.opt.MinPoll
		}
		timer.Stop()
	}
}

// disarm closes a watch that stopped being useful, counted as a watch
// error.
func (t *Tailer) disarm(w *dirWatch) {
	w.Close()
	t.mu.Lock()
	t.st.WatchErrors++
	t.st.Notify = false
	t.mu.Unlock()
}

// tryArm arms the directory watch, counting a failure; nil leaves Run
// on the polling ladder for this turn.
func (t *Tailer) tryArm(wake chan<- struct{}) *dirWatch {
	w, err := t.arm(t.dir, wake)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.st.WatchErrors++
		return nil
	}
	t.st.Notify = true
	return w
}

// count bumps one of the tailer's counters.
func (t *Tailer) count(c *uint64) {
	t.mu.Lock()
	*c++
	t.mu.Unlock()
}

// Stats snapshots the tailer's accounting.
func (t *Tailer) Stats() TailerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// Applied returns the newest sequence delivered to the sink.
func (t *Tailer) Applied() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.Applied
}

// Lag returns how many durable records the replica has not applied yet
// (it scans the newest segment; call it from scrape paths, not loops).
func (t *Tailer) Lag() uint64 {
	tail := TailSeq(t.dir)
	applied := t.Applied()
	if tail <= applied {
		return 0
	}
	return tail - applied
}

// RegisterMetrics exposes the replica's tail position on the registry.
// replica labels the series so several replicas can share a scrape.
func (t *Tailer) RegisterMetrics(r *obs.Registry, replica string) {
	labels := obs.Labels{"replica": replica}
	r.GaugeFunc("maritime_alertlog_tail_applied", "Newest log sequence applied by this replica.", labels,
		func() float64 { return float64(t.Applied()) })
	r.GaugeFunc("maritime_alertlog_tail_lag", "Durable records not yet applied by this replica.", labels,
		func() float64 { return float64(t.Lag()) })
	r.CounterFunc("maritime_alertlog_tail_records_total", "Records applied by this replica.", labels,
		func() float64 { return float64(t.Stats().Records) })
	r.CounterFunc("maritime_alertlog_tail_skipped_total", "Sequences this replica had to jump (pruned or corrupt).", labels,
		func() float64 { return float64(t.Stats().Skipped) })
	r.CounterFunc("maritime_alertlog_tail_polls_total", "Log polls by this replica.", labels,
		func() float64 { return float64(t.Stats().Polls) })
	r.CounterFunc("maritime_alertlog_tail_errors_total", "Failed log polls.", labels,
		func() float64 { return float64(t.Stats().Errors) })
	const wakeHelp = "Waits of this replica's tailer ended by a directory event (notify) or by the timer (backstop or polling ladder)."
	r.CounterFunc("maritime_alertlog_tail_wakeups_total", wakeHelp, obs.Labels{"replica": replica, "source": "notify"},
		func() float64 { return float64(t.Stats().NotifyWakeups) })
	r.CounterFunc("maritime_alertlog_tail_wakeups_total", wakeHelp, obs.Labels{"replica": replica, "source": "timer"},
		func() float64 { return float64(t.Stats().TimerWakeups) })
	r.CounterFunc("maritime_alertlog_tail_watch_errors_total", "Failed attempts to arm the log-directory watch, and armed watches lost.", labels,
		func() float64 { return float64(t.Stats().WatchErrors) })
	r.GaugeFunc("maritime_alertlog_tail_notify", "1 while the log-directory watch is armed, 0 while this replica polls.", labels,
		func() float64 {
			if t.Stats().Notify {
				return 1
			}
			return 0
		})
}
