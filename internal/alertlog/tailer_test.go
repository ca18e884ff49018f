package alertlog

// The tailer's wake path, on every platform: what Run does with and
// without a directory watch. The tests that prove the kernel
// notification itself are in wake_linux_test.go.

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// tailSink records what a tailer delivered and flags anything but
// "every sequence once, ascending".
type tailSink struct {
	mu   sync.Mutex
	seqs []uint64
	bad  string
	grew chan struct{} // one coalesced token per delivery
}

func newTailSink() *tailSink { return &tailSink{grew: make(chan struct{}, 1)} }

func (s *tailSink) apply(envs []serve.Envelope) {
	s.mu.Lock()
	for _, e := range envs {
		if n := len(s.seqs); n > 0 && e.Seq <= s.seqs[n-1] && s.bad == "" {
			s.bad = "sequence went backwards or repeated"
		}
		s.seqs = append(s.seqs, e.Seq)
	}
	s.mu.Unlock()
	select {
	case s.grew <- struct{}{}:
	default:
	}
}

func (s *tailSink) snapshot() ([]uint64, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.seqs...), s.bad
}

// waitFor blocks until the sink holds n records, failing the test after
// within.
func (s *tailSink) waitFor(t *testing.T, n int, within time.Duration) []uint64 {
	t.Helper()
	deadline := time.After(within)
	for {
		if seqs, _ := s.snapshot(); len(seqs) >= n {
			return seqs
		}
		select {
		case <-s.grew:
		case <-deadline:
			seqs, _ := s.snapshot()
			t.Fatalf("tailer applied %d records within %v, want %d", len(seqs), within, n)
		}
	}
}

// requireRun asserts the sink saw exactly want, in order, once each.
func (s *tailSink) requireRun(t *testing.T, want ...uint64) {
	t.Helper()
	seqs, bad := s.snapshot()
	if bad != "" {
		t.Fatalf("%s: %v", bad, seqs)
	}
	if len(seqs) != len(want) {
		t.Fatalf("applied %d records, want %d: %v", len(seqs), len(want), seqs)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("record %d has seq %d, want %d", i, seqs[i], want[i])
		}
	}
}

// seqRange returns first..last.
func seqRange(first, last uint64) []uint64 {
	out := make([]uint64, 0, last-first+1)
	for s := first; s <= last; s++ {
		out = append(out, s)
	}
	return out
}

// startTailer runs a tailer until the test ends (or stop is called) and
// returns it with a stop that waits for Run to return.
func startTailer(t *testing.T, tl *Tailer) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tl.Run(ctx)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return stop
}

// waitStats polls the tailer's stats until ok accepts them.
func waitStats(t *testing.T, tl *Tailer, what string, ok func(TailerStats) bool) TailerStats {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		st := tl.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("tailer never reached %q: %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTailerArmFailureFallsBackToLadder injects a watch that cannot be
// armed: Run must keep delivering on the polling ladder, count every
// failed attempt and report that it is not being notified.
func TestTailerArmFailureFallsBackToLadder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sink := newTailSink()
	tl := NewTailer(dir, 0, sink.apply, TailOptions{MinPoll: time.Millisecond, MaxPoll: 5 * time.Millisecond})
	tl.arm = func(string, chan<- struct{}) (*dirWatch, error) {
		return nil, errors.New("injected: no inotify instances left")
	}
	startTailer(t, tl)
	for seq := uint64(1); seq <= 30; seq++ {
		if err := l.Append(testEnvs(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	sink.waitFor(t, 30, 5*time.Second)
	sink.requireRun(t, seqRange(1, 30)...)
	st := waitStats(t, tl, "timer wake-ups on the ladder", func(st TailerStats) bool { return st.TimerWakeups > 0 })
	if st.Notify || st.NotifyWakeups != 0 {
		t.Fatalf("tailer reports notification with the watch unarmable: %+v", st)
	}
	if st.WatchErrors == 0 {
		t.Fatalf("failed arm attempts were not counted: %+v", st)
	}
}

// TestTailerStartedBeforeDirectoryExists: the benchmark (and any
// orchestrator) may start a replica before the writer has created the
// log directory; the first record must arrive once it does.
func TestTailerStartedBeforeDirectoryExists(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-yet")
	sink := newTailSink()
	tl := NewTailer(dir, 0, sink.apply, TailOptions{MinPoll: time.Millisecond, MaxPoll: 10 * time.Millisecond})
	startTailer(t, tl)
	waitStats(t, tl, "a counted arm failure on the missing directory", func(st TailerStats) bool { return st.WatchErrors > 0 })

	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 3)); err != nil {
		t.Fatal(err)
	}
	sink.waitFor(t, 3, 5*time.Second)
	sink.requireRun(t, 1, 2, 3)
}

// TestTailerMetricsExposeWakePath: the replica's "am I being woken, or
// silently polling" series are on the registry under its label.
func TestTailerMetricsExposeWakePath(t *testing.T) {
	tl := NewTailer(t.TempDir(), 0, func([]serve.Envelope) {}, TailOptions{})
	reg := obs.NewRegistry()
	tl.RegisterMetrics(reg, "r1")
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`maritime_alertlog_tail_wakeups_total{replica="r1",source="notify"} 0`,
		`maritime_alertlog_tail_wakeups_total{replica="r1",source="timer"} 0`,
		`maritime_alertlog_tail_watch_errors_total{replica="r1"} 0`,
		`maritime_alertlog_tail_notify{replica="r1"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}
