package checkpoint

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/feed"
	"repro/internal/obs"
)

// testState builds a small distinguishable State; the System field stays
// zero — Manager treats it as opaque, and the full-pipeline round trip
// is covered by the recovery equivalence tests.
func testState(slides int) *State {
	return &State{
		Query:  time.Unix(int64(1000+60*slides), 0).UTC(),
		Cursor: feed.Cursor{Sec: int64(1000 + 60*slides), SeenAtSec: map[uint32]int{7: slides + 1}},
		Slides: slides,
	}
}

func newTestManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	m, err := NewManager(opt)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func mustSave(t *testing.T, m *Manager, st *State) {
	t.Helper()
	if err := m.Save(st); err != nil {
		t.Fatalf("Save: %v", err)
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	m := newTestManager(t, Options{})
	mustSave(t, m, testState(1))
	mustSave(t, m, testState(2))

	st, err := m.RestoreNewest()
	if err != nil {
		t.Fatalf("RestoreNewest: %v", err)
	}
	if st == nil {
		t.Fatal("RestoreNewest returned nil state")
	}
	if st.Slides != 2 {
		t.Errorf("restored Slides = %d, want 2 (the newest checkpoint)", st.Slides)
	}
	if !st.Query.Equal(testState(2).Query) {
		t.Errorf("restored Query = %v, want %v", st.Query, testState(2).Query)
	}
	if st.Cursor.Sec != 1120 || st.Cursor.SeenAtSec[7] != 3 {
		t.Errorf("restored Cursor = %+v, want Sec=1120 SeenAtSec[7]=3", st.Cursor)
	}
}

func TestEmptyDirIsColdStart(t *testing.T) {
	m := newTestManager(t, Options{})
	st, err := m.RestoreNewest()
	if st != nil || err != nil {
		t.Fatalf("RestoreNewest on empty dir = (%v, %v), want (nil, nil)", st, err)
	}
}

// newestPath returns the path of the newest checkpoint file on disk.
func newestPath(t *testing.T, m *Manager) string {
	t.Helper()
	if m.LastSeq() == 0 {
		t.Fatal("no checkpoint saved")
	}
	return PathFor(m.Dir(), m.LastSeq())
}

func TestRestoreFallsBackPastCorruptNewest(t *testing.T) {
	m := newTestManager(t, Options{})
	mustSave(t, m, testState(1))
	mustSave(t, m, testState(2))

	// Flip a payload byte of the newest checkpoint.
	path := newestPath(t, m)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := m.RestoreNewest()
	if st == nil {
		t.Fatalf("RestoreNewest found no valid checkpoint, err=%v", err)
	}
	if st.Slides != 1 {
		t.Errorf("restored Slides = %d, want 1 (fallback past corrupt newest)", st.Slides)
	}
	if !errors.Is(err, durable.ErrChecksum) {
		t.Errorf("err = %v, want the skipped file's ErrChecksum joined in", err)
	}
}

func TestAllInvalidIsColdStartWithReasons(t *testing.T) {
	m := newTestManager(t, Options{})
	mustSave(t, m, testState(1))
	mustSave(t, m, testState(2))
	for seq := uint64(1); seq <= m.LastSeq(); seq++ {
		if err := os.WriteFile(PathFor(m.Dir(), seq), []byte("definitely not a checkpoint frame"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := m.RestoreNewest()
	if st != nil {
		t.Fatalf("RestoreNewest restored %+v from garbage", st)
	}
	if !errors.Is(err, durable.ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic for the rejected files", err)
	}
}

func TestCrashMidWriteLeavesPreviousIntact(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Options{Dir: dir})
	mustSave(t, m, testState(1))

	// Arm the crash: the next save dies after 10 bytes, inside the frame
	// header of the temp file.
	m.store.WrapWriter = func(w io.Writer) io.Writer { return faults.NewCrashWriter(w, 10) }
	err := m.Save(testState(2))
	if !errors.Is(err, faults.ErrInjectedCrash) {
		t.Fatalf("Save with crash writer: err = %v, want ErrInjectedCrash", err)
	}
	m.store.WrapWriter = nil

	// No temp litter, and the previous checkpoint restores cleanly.
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), fileSpec.Suffix) {
			t.Errorf("crashed save left stray file %q in checkpoint dir", e.Name())
		}
	}
	st, restoreErr := m.RestoreNewest()
	if restoreErr != nil || st == nil || st.Slides != 1 {
		t.Fatalf("RestoreNewest after crashed save = (%+v, %v), want intact Slides=1", st, restoreErr)
	}

	// And the manager keeps working: the next clean save supersedes it.
	mustSave(t, m, testState(3))
	st, err = m.RestoreNewest()
	if err != nil || st == nil || st.Slides != 3 {
		t.Fatalf("RestoreNewest after recovery save = (%+v, %v), want Slides=3", st, err)
	}
}

func TestSaveRetriesTransientWriteFailure(t *testing.T) {
	m := newTestManager(t, Options{RetryBackoff: time.Millisecond})
	reg := obs.NewRegistry()
	m.RegisterMetrics(reg)

	// The first two attempts crash mid-frame (a transient ENOSPC/EIO
	// stand-in); the third writes through. Each retry restarts the
	// atomic protocol, so WrapWriter is called once per attempt.
	attempts := 0
	m.store.WrapWriter = func(w io.Writer) io.Writer {
		attempts++
		if attempts <= 2 {
			return faults.NewCrashWriter(w, 10)
		}
		return w
	}
	if err := m.Save(testState(1)); err != nil {
		t.Fatalf("Save should succeed on the third attempt: %v", err)
	}
	if attempts != 3 {
		t.Errorf("write attempts = %d, want 3", attempts)
	}
	st, err := m.RestoreNewest()
	if err != nil || st == nil || st.Slides != 1 {
		t.Fatalf("RestoreNewest after retried save = (%+v, %v), want Slides=1", st, err)
	}

	// Recovered retries are not failures: 2 retries, 0 failures.
	var buf strings.Builder
	reg.WriteText(&buf)
	text := buf.String()
	if !strings.Contains(text, "maritime_checkpoint_retries_total 2") {
		t.Errorf("metrics should count 2 retries:\n%s", text)
	}
	if !strings.Contains(text, "maritime_checkpoint_failures_total 0") {
		t.Errorf("recovered retries must not count as failures:\n%s", text)
	}

	// A persistent fault exhausts the budget (1 + RetryAttempts writes)
	// and only then counts one failure.
	attempts = 0
	m.store.WrapWriter = func(w io.Writer) io.Writer {
		attempts++
		return faults.NewCrashWriter(w, 10)
	}
	if err := m.Save(testState(2)); !errors.Is(err, faults.ErrInjectedCrash) {
		t.Fatalf("Save with persistent fault: err = %v, want ErrInjectedCrash", err)
	}
	if attempts != 3 {
		t.Errorf("exhausted save used %d attempts, want 3", attempts)
	}
	buf.Reset()
	reg.WriteText(&buf)
	if !strings.Contains(buf.String(), "maritime_checkpoint_failures_total 1") {
		t.Errorf("exhausted save should count exactly one failure:\n%s", buf.String())
	}
}

func TestSaveRetryDisabled(t *testing.T) {
	m := newTestManager(t, Options{RetryAttempts: -1})
	attempts := 0
	m.store.WrapWriter = func(w io.Writer) io.Writer {
		attempts++
		return faults.NewCrashWriter(w, 10)
	}
	if err := m.Save(testState(1)); err == nil {
		t.Fatal("Save should fail with retries disabled")
	}
	if attempts != 1 {
		t.Errorf("RetryAttempts=-1 made %d attempts, want 1", attempts)
	}
}

func TestNewManagerContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, Options{Dir: dir})
	mustSave(t, m1, testState(1))
	mustSave(t, m1, testState(2))
	seq := m1.LastSeq()

	// A fresh manager over the same dir (a restarted process) numbers its
	// saves after the existing ones instead of overwriting them.
	m2 := newTestManager(t, Options{Dir: dir})
	mustSave(t, m2, testState(3))
	if m2.LastSeq() != seq+1 {
		t.Errorf("restarted manager LastSeq = %d, want %d", m2.LastSeq(), seq+1)
	}
	st, err := m2.RestoreNewest()
	if err != nil || st == nil || st.Slides != 3 {
		t.Fatalf("RestoreNewest = (%+v, %v), want Slides=3", st, err)
	}
}
