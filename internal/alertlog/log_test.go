package alertlog

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/maritime"
	"repro/internal/serve"
)

// testEnvs builds n deterministic envelopes with sequences first..first+n-1.
func testEnvs(first uint64, n int) []serve.Envelope {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]serve.Envelope, n)
	for i := range out {
		seq := first + uint64(i)
		out[i] = serve.Envelope{
			Seq:       seq,
			Slide:     base.Add(time.Duration(seq) * time.Minute),
			Published: base.Add(time.Duration(seq) * time.Minute),
			Alert: maritime.Alert{
				CE:     "speeding",
				AreaID: "a1",
				Time:   base.Add(time.Duration(seq) * time.Minute),
				Vessel: uint32(237000000 + seq%40),
			},
		}
	}
	return out
}

// seqsOf extracts the sequence numbers of a batch.
func seqsOf(envs []serve.Envelope) []uint64 {
	out := make([]uint64, len(envs))
	for i, e := range envs {
		out[i] = e.Seq
	}
	return out
}

// requireContiguous asserts envs covers exactly first..last once, in order.
func requireContiguous(t *testing.T, envs []serve.Envelope, first, last uint64) {
	t.Helper()
	want := int(last - first + 1)
	if len(envs) != want {
		t.Fatalf("got %d records, want %d (%d..%d); seqs=%v", len(envs), want, first, last, seqsOf(envs))
	}
	for i, e := range envs {
		if e.Seq != first+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d", i, e.Seq, first+uint64(i))
		}
	}
}

// readAll drains the log from afterSeq via a fresh reader.
func readAll(t *testing.T, dir string, afterSeq uint64) []serve.Envelope {
	t.Helper()
	r := NewReader(dir, afterSeq)
	defer r.Close()
	var out []serve.Envelope
	for {
		batch, err := r.Next(256)
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		if len(batch) == 0 {
			return out
		}
		out = append(out, batch...)
	}
}

func TestAppendReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(101, 50)); err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 150 {
		t.Fatalf("LastSeq=%d, want 150", got)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 150)
	// ReadSince respects the cursor.
	envs, err := l.ReadSince(140, 100)
	if err != nil {
		t.Fatal(err)
	}
	requireContiguous(t, envs, 141, 150)
}

func TestRotationAndPruning(t *testing.T) {
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
	st := l.Stats()
	if st.Segments > 3 {
		t.Fatalf("retention kept %d segments, want ≤ 3", st.Segments)
	}
	if st.PrunedSegments == 0 {
		t.Fatal("expected pruned segments with a 512-byte rotation threshold")
	}
	if st.FirstSeq == 1 {
		t.Fatal("FirstSeq did not advance past the pruned range")
	}
	// A reader starting before the retained range jumps forward and
	// accounts the loss — the log never silently closes a gap.
	r := NewReader(dir, 0)
	defer r.Close()
	var got []serve.Envelope
	for {
		batch, err := r.Next(256)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	requireContiguous(t, got, st.FirstSeq, 200)
	if want := st.FirstSeq - 1; r.Skipped() != want {
		t.Fatalf("reader skipped %d, want %d", r.Skipped(), want)
	}
}

func TestIdempotentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 10)); err != nil {
		t.Fatal(err)
	}
	// A checkpoint replay re-publishes 5..12: 5..10 must be discarded as
	// already durable, 11..12 appended.
	if err := l.Append(testEnvs(5, 8)); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SkippedDup != 6 {
		t.Fatalf("SkippedDup=%d, want 6", st.SkippedDup)
	}
	if st.LastSeq != 12 {
		t.Fatalf("LastSeq=%d, want 12", st.LastSeq)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 12)
}

func TestGapCounting(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(9, 2)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.GapRecords != 3 {
		t.Fatalf("GapRecords=%d, want 3 (seqs 6..8 never logged)", st.GapRecords)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 20)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final frame: cut the segment mid-record, as a crash
	// between write and fsync would.
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
	st := l2.Stats()
	if st.Truncations != 1 {
		t.Fatalf("Truncations=%d, want 1", st.Truncations)
	}
	if st.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes not counted")
	}
	if st.LastSeq != 19 {
		t.Fatalf("LastSeq=%d after torn-tail recovery, want 19", st.LastSeq)
	}
	// Every frame before the torn one survived, and the writer resumes
	// exactly after the recovered tail.
	requireContiguous(t, readAll(t, dir, 0), 1, 19)
	if err := l2.Append(testEnvs(20, 5)); err != nil {
		t.Fatal(err)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 24)
}

func TestCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 20)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip bytes inside the newest record's payload: framing length still
	// parses, the CRC must catch it.
	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segs[0].path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, segs[0].size-10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Truncations != 1 || st.LastSeq != 19 {
		t.Fatalf("Truncations=%d LastSeq=%d, want 1/19", st.Truncations, st.LastSeq)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 19)
}

func TestCrashWriterLeavesRecoverableTail(t *testing.T) {
	dir := t.TempDir()
	// The crash writer dies mid-frame partway into the stream — the
	// injected equivalent of the process being killed between write and
	// fsync.
	l, err := Open(dir, Options{WrapWriter: func(w io.Writer) io.Writer {
		return faults.NewCrashWriter(w, 2000)
	}})
	if err != nil {
		t.Fatal(err)
	}
	var crashed bool
	for seq := uint64(1); seq <= 100 && !crashed; seq += 5 {
		if err := l.Append(testEnvs(seq, 5)); err != nil {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("crash writer never fired; raise the record count")
	}
	// No Close: a crashed process does not seal its segment.

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.LastSeq == 0 {
		t.Fatal("recovery found no durable records")
	}
	// The survivors are contiguous from 1 — recovery cut the torn frame,
	// never a frame before it.
	requireContiguous(t, readAll(t, dir, 0), 1, st.LastSeq)
	// Post-restart replay re-appends the whole range: durable records
	// deduplicate, lost ones land again — exactly once end to end.
	if err := l2.Append(testEnvs(1, 100)); err != nil {
		t.Fatal(err)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 100)
	if l2.Stats().SkippedDup != st.LastSeq {
		t.Fatalf("SkippedDup=%d, want %d", l2.Stats().SkippedDup, st.LastSeq)
	}
}

func TestReaderFollowsRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := NewReader(dir, 0)
	defer r.Close()
	var got []serve.Envelope
	for seq := uint64(1); seq <= 100; seq += 10 {
		if err := l.Append(testEnvs(seq, 10)); err != nil {
			t.Fatal(err)
		}
		// Interleave reads with appends so the reader crosses live
		// rotations, not a finished chain.
		batch, err := r.Next(1024)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	for {
		batch, err := r.Next(1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	requireContiguous(t, got, 1, 100)
	if l.Stats().Segments < 3 {
		t.Fatalf("only %d segments; the test did not exercise rotation", l.Stats().Segments)
	}
}

func TestTailSeqAndReplay(t *testing.T) {
	dir := t.TempDir()
	if got := TailSeq(dir); got != 0 {
		t.Fatalf("TailSeq of empty dir = %d, want 0", got)
	}
	l, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 60)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := TailSeq(dir); got != 60 {
		t.Fatalf("TailSeq=%d, want 60", got)
	}
	rp := OpenReplay(dir)
	if got := rp.LastSeq(); got != 60 {
		t.Fatalf("Replay.LastSeq=%d, want 60", got)
	}
	envs, err := rp.ReadSince(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	requireContiguous(t, envs, 51, 60)
	if rp.Append(testEnvs(61, 1)) == nil {
		t.Fatal("read-only replay accepted an append")
	}
}

func TestRecoveryDropsSegmentsPastCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 60)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥ 3 segments, got %d", len(segs))
	}
	// Corrupt a MIDDLE segment: recovery must end the log there and drop
	// every later segment — otherwise a sequence gap would hide inside
	// the chain.
	mid := segs[len(segs)/2]
	f, err := os.OpenFile(mid.path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, mid.size/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 100})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.Truncations != 1 {
		t.Fatalf("Truncations=%d, want 1", st.Truncations)
	}
	if st.LastSeq == 0 || st.LastSeq >= 60 {
		t.Fatalf("LastSeq=%d, want inside (0,60)", st.LastSeq)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, st.LastSeq)
	for _, p := range segsAfter(t, dir, mid.start) {
		t.Fatalf("segment %s survived past the corruption", p)
	}
}

// segsAfter lists segment paths with start > after.
func segsAfter(t *testing.T, dir string, after uint64) []string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, s := range segs {
		if s.start > after {
			out = append(out, filepath.Base(s.path))
		}
	}
	return out
}

// TestReaderRescansSegmentSealedUnderIt pins the window between a
// reader finding the active segment drained and its directory listing:
// a writer that appends to that segment and rotates inside the window
// used to make the reader step to the new segment past records it had
// not read (counted in Skipped, lost to the replica's subscribers —
// the TestChaosReplicaKillAndFailover flake).
func TestReaderRescansSegmentSealedUnderIt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 1)); err != nil {
		t.Fatal(err)
	}
	r := NewReader(dir, 0)
	defer r.Close()
	fired := false
	r.beforeList = func() {
		if fired {
			return
		}
		fired = true
		// Lands partly in the segment the reader just drained, partly
		// in a new one.
		if err := l.Append(testEnvs(2, 9)); err != nil {
			t.Error(err)
		}
		if l.Stats().Segments < 2 {
			t.Error("the append did not rotate; the test exercised nothing")
		}
	}
	var got []serve.Envelope
	for {
		batch, err := r.Next(1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	if !fired {
		t.Fatal("hook never ran")
	}
	requireContiguous(t, got, 1, 10)
	if r.Skipped() != 0 {
		t.Fatalf("reader skipped %d records of a log that lost none", r.Skipped())
	}
}

// segmentBytes reads every segment of dir, keyed by file name.
func segmentBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(segs))
	for _, s := range segs {
		b, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(s.path)] = string(b)
	}
	return out
}

// TestAppendBatchSpanningRotation: one Append whose frames cross the
// rotation threshold lands in two segments with contiguous sequences,
// and the segments are byte-identical to the same records appended one
// at a time — the single write changes the syscall count, never the
// log.
func TestAppendBatchSpanningRotation(t *testing.T) {
	opt := Options{SegmentBytes: 1 << 10, KeepSegments: 100}
	batched, single := t.TempDir(), t.TempDir()
	lb, err := Open(batched, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	ls, err := Open(single, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if err := lb.Append(testEnvs(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := lb.Append(testEnvs(4, 5)); err != nil { // crosses 1 KiB mid-batch
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		if err := ls.Append(testEnvs(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(batched)
	if err != nil || len(segs) != 2 {
		t.Fatalf("batched log has %d segments (%v), want 2", len(segs), err)
	}
	if segs[1].start <= 4 || segs[1].start > 8 {
		t.Fatalf("second segment starts at %d, want inside the spanning batch (5..8)", segs[1].start)
	}
	requireContiguous(t, readAll(t, batched, 0), 1, 8)
	if st := lb.Stats(); st.LastSeq != 8 || st.Appended != 8 || st.ActiveBytes != segs[1].size {
		t.Fatalf("stats %+v, want LastSeq 8, Appended 8, ActiveBytes %d", st, segs[1].size)
	}
	if got, want := segmentBytes(t, batched), segmentBytes(t, single); !reflect.DeepEqual(got, want) {
		t.Fatalf("batched segments differ from record-at-a-time segments:\n%d files vs %d", len(got), len(want))
	}
}

// TestAppendShortWriteAccountsWholeFrames cuts the batch's single write
// mid-frame: the log's accounting must equal the whole frames on disk —
// what a crash at that byte leaves — and recovery truncates exactly the
// torn one.
func TestAppendShortWriteAccountsWholeFrames(t *testing.T) {
	const budget = 2000
	dir := t.TempDir()
	l, err := Open(dir, Options{WrapWriter: func(w io.Writer) io.Writer {
		return faults.NewCrashWriter(w, budget)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 20)); !errors.Is(err, faults.ErrInjectedCrash) {
		t.Fatalf("Append error = %v, want the injected crash", err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	valid, frames, _, last, scanErr := scanSegment(segs[0].path)
	if scanErr == nil || segs[0].size != budget || valid >= budget {
		t.Fatalf("disk holds %d bytes, %d in whole frames (scan: %v); want a torn frame at byte %d", segs[0].size, valid, scanErr, budget)
	}
	if frames == 0 || frames >= 20 {
		t.Fatalf("%d whole frames landed, want some but not all of 20", frames)
	}
	st := l.Stats()
	if st.LastSeq != last || st.Appended != uint64(frames) || st.ActiveBytes != valid || st.AppendErrors != 1 {
		t.Fatalf("stats %+v, want LastSeq %d, Appended %d, ActiveBytes %d, AppendErrors 1", st, last, frames, valid)
	}
	// No Close: a crashed process does not seal its segment.

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	st2 := l2.Stats()
	if st2.Truncations != 1 || st2.TruncatedBytes != uint64(budget-valid) || st2.LastSeq != last {
		t.Fatalf("recovery %+v, want one truncation of %d bytes back to seq %d", st2, budget-valid, last)
	}
	if err := l2.Append(testEnvs(1, 20)); err != nil {
		t.Fatal(err)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 20)
}
