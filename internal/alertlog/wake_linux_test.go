//go:build linux

package alertlog

// The kernel-notified wake path. Every test here runs the tailer with
// MaxPoll: time.Hour, so nothing but a directory event can deliver a
// record within the test's patience: they prove the notification, not
// the timer.

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// notifiedTailer starts a tailer whose backstop never fires and waits
// until its watch is armed.
func notifiedTailer(t *testing.T, dir string, afterSeq uint64, sink *tailSink) (*Tailer, func()) {
	t.Helper()
	tl := NewTailer(dir, afterSeq, sink.apply, TailOptions{MaxPoll: time.Hour})
	stop := startTailer(t, tl)
	waitStats(t, tl, "watch armed", func(st TailerStats) bool { return st.Notify })
	return tl, stop
}

func TestTailerWokenByAppendNotTimer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sink := newTailSink()
	tl, _ := notifiedTailer(t, dir, 0, sink)
	// Let the tailer go idle: the append below must find it parked.
	waitStats(t, tl, "first poll done", func(st TailerStats) bool { return st.Polls > 0 })
	time.Sleep(20 * time.Millisecond)

	if err := l.Append(testEnvs(1, 1)); err != nil {
		t.Fatal(err)
	}
	sink.waitFor(t, 1, 100*time.Millisecond)
	sink.requireRun(t, 1)
	st := tl.Stats()
	if st.NotifyWakeups == 0 || st.TimerWakeups != 0 {
		t.Fatalf("record arrived without a notify wake-up: %+v", st)
	}
	if st.WatchErrors != 0 {
		t.Fatalf("watch errors on a plain local directory: %+v", st)
	}
}

// TestTailerLostWakeupStress appends 5 000 single-record batches back
// to back through tiny segments: with the timer out of the picture, one
// lost wake-up (or one record lost at a rotation) leaves the tailer
// short forever.
func TestTailerLostWakeupStress(t *testing.T) {
	const total = 5000
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 8 << 10, KeepSegments: 1 << 20, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sink := newTailSink()
	tl, _ := notifiedTailer(t, dir, 0, sink)
	for seq := uint64(1); seq <= total; seq++ {
		if err := l.Append(testEnvs(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	sink.waitFor(t, total, 30*time.Second)
	sink.requireRun(t, seqRange(1, total)...)
	st := tl.Stats()
	if st.Skipped != 0 || st.TimerWakeups != 0 {
		t.Fatalf("skipped=%d timer wake-ups=%d, want 0/0: %+v", st.Skipped, st.TimerWakeups, st)
	}
	if l.Stats().Segments < 50 {
		t.Fatalf("only %d segments; the stress did not cross rotations", l.Stats().Segments)
	}
}

// TestTailerWakeDrivenPruneAhead: a tailer whose cursor retention has
// already pruned jumps forward with the loss counted, then follows the
// live log across rotations and further pruning on wake-ups alone.
func TestTailerWakeDrivenPruneAhead(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 200; seq += 10 {
		if err := l.Append(testEnvs(seq, 10)); err != nil {
			t.Fatal(err)
		}
	}
	first := l.Stats().FirstSeq
	if first <= 1 {
		t.Fatal("retention pruned nothing; the test exercised nothing")
	}
	sink := newTailSink()
	tl, _ := notifiedTailer(t, dir, 0, sink)
	sink.waitFor(t, int(200-first+1), 5*time.Second)
	sink.requireRun(t, seqRange(first, 200)...)
	if got := tl.Stats().Skipped; got != first-1 {
		t.Fatalf("skipped %d, want %d (the pruned prefix)", got, first-1)
	}
	// Live from here: each batch rotates and prunes behind the tailer.
	for seq := uint64(201); seq <= 260; seq += 10 {
		if err := l.Append(testEnvs(seq, 10)); err != nil {
			t.Fatal(err)
		}
		sink.waitFor(t, int(seq+9-first+1), 5*time.Second)
	}
	sink.requireRun(t, seqRange(first, 260)...)
	if st := tl.Stats(); st.Skipped != first-1 || st.TimerWakeups != 0 {
		t.Fatalf("live tail skipped or fell back to the timer: %+v", st)
	}
}

// TestTailerWakeDrivenWriterRestartTruncation: the writer dies with a
// torn tail behind the tailer's cursor, restarts (recovery truncates
// the file under the tailer's open descriptor) and re-appends; the
// tailer rewinds, deduplicates by sequence and delivers only what is
// new — all on wake-ups.
func TestTailerWakeDrivenWriterRestartTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 20)); err != nil {
		t.Fatal(err)
	}
	sink := newTailSink()
	tl, _ := notifiedTailer(t, dir, 0, sink)
	sink.waitFor(t, 20, 5*time.Second)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	if err := os.Truncate(segs[0].path, segs[0].size-7); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Truncations != 1 || st.LastSeq != 19 {
		t.Fatalf("recovery: %+v, want one truncation back to 19", st)
	}
	// The restarted pipeline replays 15..25: 15..19 are durable, 20 is
	// re-appended (the tailer already delivered it), 21..25 are new.
	if err := l2.Append(testEnvs(15, 11)); err != nil {
		t.Fatal(err)
	}
	sink.waitFor(t, 25, 5*time.Second)
	sink.requireRun(t, seqRange(1, 25)...)
	if st := tl.Stats(); st.Skipped != 0 || st.TimerWakeups != 0 {
		t.Fatalf("restart handled by skipping or by the timer: %+v", st)
	}
}

// TestTailerRearmsAfterDirectoryReplaced: the log directory is wiped
// and re-created under a live tailer. The old watch is on the old
// inode (and the kernel reports it dropped only once the tailer lets
// go of its last segment there); Run must end up watching the new
// directory, with the episode counted.
func TestTailerRearmsAfterDirectoryReplaced(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 2)); err != nil {
		t.Fatal(err)
	}
	sink := newTailSink()
	tl := NewTailer(dir, 0, sink.apply, TailOptions{MinPoll: time.Millisecond, MaxPoll: 10 * time.Millisecond})
	startTailer(t, tl)
	sink.waitFor(t, 2, 5*time.Second)
	waitStats(t, tl, "watch armed", func(st TailerStats) bool { return st.Notify })
	l.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(testEnvs(3, 2)); err != nil {
		t.Fatal(err)
	}
	sink.waitFor(t, 4, 5*time.Second)
	sink.requireRun(t, 1, 2, 3, 4)
	st := waitStats(t, tl, "old watch given up, new one armed", func(st TailerStats) bool { return st.WatchErrors > 0 && st.Notify })
	if err := l2.Append(testEnvs(5, 1)); err != nil {
		t.Fatal(err)
	}
	sink.waitFor(t, 5, 5*time.Second)
	waitStats(t, tl, "woken on the new directory", func(now TailerStats) bool { return now.NotifyWakeups > st.NotifyWakeups })
}

// TestTailerDeafWatchFallsBackToLadder: a filesystem that arms without
// error but never reports the writer's changes (NFS, FUSE) — injected
// here as a watch on the wrong directory — must not leave the tailer on
// the MaxPoll backstop: after a few records only the timer found, Run
// gives the watch up, counts it and polls on the ladder.
func TestTailerDeafWatchFallsBackToLadder(t *testing.T) {
	dir, elsewhere := t.TempDir(), t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sink := newTailSink()
	tl := NewTailer(dir, 0, sink.apply, TailOptions{MinPoll: time.Millisecond, MaxPoll: 20 * time.Millisecond})
	tl.arm = func(_ string, wake chan<- struct{}) (*dirWatch, error) { return armWatch(elsewhere, wake) }
	startTailer(t, tl)
	waitStats(t, tl, "watch armed", func(st TailerStats) bool { return st.Notify })
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Append(testEnvs(seq, 1)); err != nil {
			t.Fatal(err)
		}
		sink.waitFor(t, int(seq), 5*time.Second)
	}
	sink.requireRun(t, seqRange(1, 10)...)
	st := tl.Stats()
	if st.Notify || st.WatchErrors != 1 || st.NotifyWakeups != 0 {
		t.Fatalf("deaf watch not given up exactly once: %+v", st)
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestTailerRunLeavesNothingBehind: a returned Run has released its
// watch goroutine, its inotify descriptor and its segment descriptor.
func TestTailerRunLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 5)); err != nil {
		t.Fatal(err)
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	for i := 0; i < 20; i++ {
		sink := newTailSink()
		_, stop := notifiedTailer(t, dir, 0, sink)
		sink.waitFor(t, 5, 5*time.Second)
		stop()
	}
	// Goroutines of other tests' deferred teardown may still be winding
	// down; only growth that persists is a leak.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		g, f := runtime.NumGoroutine(), openFDs(t)
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 20 Run cycles: %d goroutines (was %d), %d fds (was %d)", g, goroutines, f, fds)
		}
	}
}
