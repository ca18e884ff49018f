package alertlog

// The chaos suite: kill serving replicas mid-stream, crash the writer
// mid-segment, corrupt the newest segment on disk — and assert the one
// property the tier exists for: a subscriber that reconnects anywhere
// with its Last-Event-ID sees every alert exactly once, byte-identical
// to a consumer that never saw a failure. Run via `make test-alertlog`
// (under -race) or plain `go test ./internal/alertlog/`.

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"net/http/httptest"

	"repro/internal/faults"
	"repro/internal/maritime"
	"repro/internal/serve"
)

// chaosReplica is one stateless serving node under test: its own hub
// fed by its own tailer, serving SSE over an httptest listener.
type chaosReplica struct {
	name   string
	hub    *serve.Hub
	tailer *Tailer
	srv    *httptest.Server
	cancel context.CancelFunc
	done   chan struct{}
}

func startChaosReplica(t *testing.T, dir, name string) *chaosReplica {
	t.Helper()
	hub := serve.NewHub(64) // tiny ring: reconnect replay MUST come from the log
	hub.AttachReplay(OpenReplay(dir))
	tailer := NewTailer(dir, 0, hub.PublishEnvelopes,
		TailOptions{MinPoll: time.Millisecond, MaxPoll: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tailer.Run(ctx)
	}()
	rp := serve.NewReplica(hub, serve.ReplicaOptions{
		Name:            name,
		SubscriberQueue: 4096,
		Heartbeat:       50 * time.Millisecond,
	})
	r := &chaosReplica{
		name:   name,
		hub:    hub,
		tailer: tailer,
		srv:    httptest.NewServer(rp.Handler()),
		cancel: cancel,
		done:   done,
	}
	t.Cleanup(r.kill)
	return r
}

// kill tears the replica down hard: connections reset, tailer stopped.
// Idempotent so t.Cleanup can re-run it.
func (r *chaosReplica) kill() {
	select {
	case <-r.done:
		return
	default:
	}
	r.cancel()
	r.srv.CloseClientConnections()
	r.srv.Close()
	<-r.done
	r.hub.Close()
}

// chaosAlerts builds the deterministic alert stream both the victim and
// the control consume.
func chaosAlerts(total int) ([]time.Time, [][]maritime.Alert) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	const batch = 25
	var slides []time.Time
	var batches [][]maritime.Alert
	for off := 0; off < total; off += batch {
		n := batch
		if off+n > total {
			n = total - off
		}
		slide := base.Add(time.Duration(off) * time.Minute)
		alerts := make([]maritime.Alert, n)
		for i := range alerts {
			seq := off + i + 1
			alerts[i] = maritime.Alert{
				CE:     "speeding",
				AreaID: "a1",
				Time:   slide,
				Vessel: uint32(237000000 + seq%40),
			}
		}
		slides = append(slides, slide)
		batches = append(batches, alerts)
	}
	return slides, batches
}

// normalize strips the wall-clock publish stamp (it legitimately
// differs across republication) so histories compare on what matters:
// sequence, slide and the alert itself.
func normalize(envs []serve.Envelope) []serve.Envelope {
	out := make([]serve.Envelope, len(envs))
	for i, e := range envs {
		e.Published = time.Time{}
		out[i] = e
	}
	return out
}

// requireExactlyOnce asserts envs is exactly seq 1..total: no gap, no
// duplicate, no reordering.
func requireExactlyOnce(t *testing.T, who string, envs []serve.Envelope, total int) {
	t.Helper()
	if len(envs) != total {
		t.Fatalf("%s received %d envelopes, want %d", who, len(envs), total)
	}
	for i, e := range envs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("%s envelope %d has seq %d, want %d (gap or duplicate)", who, i, e.Seq, i+1)
		}
	}
}

// collect streams from one replica until stop returns true or the
// connection dies, appending into *got and advancing *last. The resume
// point rides in the "after" query parameter rather than Last-Event-ID
// so that the very first connection (after = 0) also replays from the
// log start — a fresh subscribe would begin at the replica hub's
// current head and silently miss whatever its tailer already applied.
//
// A stall fails the test on the spot, so collect is for the test's own
// goroutine only; anything else calls tryCollect.
func collect(t *testing.T, r *chaosReplica, got *[]serve.Envelope, last *uint64, stop func() bool) {
	t.Helper()
	if !tryCollect(t, r, got, last, stop) {
		t.FailNow()
	}
}

// tryCollect is collect reporting a stall with t.Errorf and a false
// return: safe off the test goroutine, where t.Fatalf would Goexit the
// caller and leave the test blocked on its result forever.
func tryCollect(t *testing.T, r *chaosReplica, got *[]serve.Envelope, last *uint64, stop func() bool) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := serve.StreamAlerts(ctx, fmt.Sprintf("%s/events?after=%d", r.srv.URL, *last), 0, func(e serve.Envelope) {
		if e.Marker != "" {
			t.Errorf("unexpected %s marker at seq %d (missing %d): retention covers the whole run", e.Marker, e.Seq, e.Missing)
			return
		}
		*got = append(*got, e)
		*last = e.Seq
		if stop() {
			cancel()
		}
	})
	// A reset mid-kill surfaces as a transport error; the reconnect with
	// Last-Event-ID is exactly what the test is proving.
	_ = err
	if ctx.Err() == context.DeadlineExceeded {
		t.Errorf("stream from %s stalled (got %d envelopes)", r.name, len(*got))
		return false
	}
	return true
}

// TestChaosReplicaKillAndFailover kills two replicas mid-stream under a
// live writer; the subscriber fails over with Last-Event-ID each time
// and must still see every alert exactly once, byte-identical to a
// consumer on a never-killed replica.
func TestChaosReplicaKillAndFailover(t *testing.T) {
	const total = 1500
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 8 << 10, KeepSegments: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	writer := serve.NewHub(64)
	writer.AttachLog(l)

	victims := []*chaosReplica{
		startChaosReplica(t, dir, "r0"),
		startChaosReplica(t, dir, "r1"),
		startChaosReplica(t, dir, "r2"),
	}
	control := startChaosReplica(t, dir, "control")

	slides, batches := chaosAlerts(total)
	var published atomic.Uint64
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := range batches {
			writer.Publish(slides[i], batches[i])
			published.Add(uint64(len(batches[i])))
			time.Sleep(time.Millisecond)
		}
	}()

	// Control consumer on the never-killed replica, running concurrently
	// with the chaos.
	ctrlDone := make(chan []serve.Envelope, 1)
	go func() {
		var got []serve.Envelope
		var last uint64
		for len(got) < total {
			if !tryCollect(t, control, &got, &last, func() bool { return len(got) >= total }) {
				break // already reported; still hand over, or the test hangs on ctrlDone
			}
			time.Sleep(5 * time.Millisecond)
		}
		ctrlDone <- got
	}()

	// The victim consumer: each kill point tears down the replica it is
	// streaming from, then it reconnects to the next with its last id.
	killAt := []int{400, 900} // received counts that trigger a kill
	var got []serve.Envelope
	var last uint64
	cur := 0
	for len(got) < total {
		collect(t, victims[cur], &got, &last, func() bool {
			return len(got) >= total || (cur < len(killAt) && len(got) >= killAt[cur])
		})
		if cur < len(killAt) && len(got) >= killAt[cur] {
			victims[cur].kill()
			cur++
			continue
		}
		if len(got) < total {
			time.Sleep(5 * time.Millisecond)
		}
	}
	<-pubDone
	ctrl := <-ctrlDone

	requireExactlyOnce(t, "failover subscriber", got, total)
	requireExactlyOnce(t, "control subscriber", ctrl, total)
	if !reflect.DeepEqual(normalize(got), normalize(ctrl)) {
		t.Fatal("failover history diverged from the never-killed control")
	}
	if cur != 2 {
		t.Fatalf("only %d replicas were killed; the failover path was not exercised", cur)
	}
}

// TestChaosWriterCrashMidSegment crashes the writer mid-frame (injected
// power loss), restarts it, replays the full publish history — and a
// replica that tailed through the whole ordeal must deliver every alert
// exactly once.
func TestChaosWriterCrashMidSegment(t *testing.T) {
	const total = 600
	dir := t.TempDir()
	slides, batches := chaosAlerts(total)

	rep := startChaosReplica(t, dir, "survivor")
	var got []serve.Envelope
	var last uint64
	consume := func(until int) {
		for len(got) < until {
			collect(t, rep, &got, &last, func() bool { return len(got) >= until })
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Phase 1: a writer whose segment writer dies mid-frame partway in.
	// The crash budget must be below the rotation threshold: WrapWriter
	// wraps each segment file anew, so a budget past SegmentBytes would
	// never fire.
	l, err := Open(dir, Options{SegmentBytes: 16 << 10, KeepSegments: 1000,
		WrapWriter: func(w io.Writer) io.Writer { return faults.NewCrashWriter(w, 9000) }})
	if err != nil {
		t.Fatal(err)
	}
	hub := serve.NewHub(64)
	hub.AttachLog(l)
	for i := range batches {
		hub.Publish(slides[i], batches[i])
	}
	if hub.LogAppendErrors() == 0 {
		t.Fatal("crash writer never fired; the test exercised nothing")
	}
	// The process "dies": no Close, no sync of the torn tail.
	durableBefore := TailSeq(dir)
	if durableBefore == 0 || durableBefore >= total {
		t.Fatalf("durable tail %d before restart, want inside (0,%d)", durableBefore, total)
	}
	consume(int(durableBefore))

	// Phase 2: restart. Recovery truncates the torn frame; the restarted
	// pipeline replays the whole history (deterministic slides → same
	// alerts under the same sequences); the log deduplicates the prefix.
	l2, err := Open(dir, Options{SegmentBytes: 4 << 10, KeepSegments: 1000})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Truncations == 0 {
		t.Fatal("recovery did not count the torn-tail truncation")
	}
	hub2 := serve.NewHub(64)
	hub2.AttachLog(l2)
	for i := range batches {
		hub2.Publish(slides[i], batches[i])
	}
	if st := l2.Stats(); st.SkippedDup == 0 {
		t.Fatal("replay deduplication never engaged")
	}

	consume(total)
	requireExactlyOnce(t, "tailing subscriber", got, total)

	// The durable history equals the replay exactly once too.
	var onDisk []serve.Envelope
	r := NewReader(dir, 0)
	defer r.Close()
	for {
		batch, err := r.Next(1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		onDisk = append(onDisk, batch...)
	}
	requireExactlyOnce(t, "durable log", onDisk, total)
}

// TestChaosCorruptNewestSegment flips bytes in the newest segment while
// the writer is down; the restarted writer counts the truncation,
// replays, and a fresh replica still serves the exact history.
func TestChaosCorruptNewestSegment(t *testing.T) {
	const total = 400
	dir := t.TempDir()
	slides, batches := chaosAlerts(total)
	l, err := Open(dir, Options{SegmentBytes: 4 << 10, KeepSegments: 1000})
	if err != nil {
		t.Fatal(err)
	}
	hub := serve.NewHub(64)
	hub.AttachLog(l)
	for i := range batches {
		hub.Publish(slides[i], batches[i])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need ≥ 2 segments, got %d (%v)", len(segs), err)
	}
	newest := segs[len(segs)-1]
	f, err := os.OpenFile(newest.path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xba, 0xdb, 0xad, 0xba, 0xdb, 0xad}, newest.size/3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{SegmentBytes: 4 << 10, KeepSegments: 1000})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.Truncations == 0 || st.TruncatedBytes == 0 {
		t.Fatalf("corruption recovery not counted: %+v", st)
	}
	if st.LastSeq >= uint64(total) {
		t.Fatalf("LastSeq=%d survived the corruption untruncated", st.LastSeq)
	}
	hub2 := serve.NewHub(64)
	hub2.AttachLog(l2)
	for i := range batches {
		hub2.Publish(slides[i], batches[i])
	}

	rep := startChaosReplica(t, dir, "fresh")
	var got []serve.Envelope
	var last uint64
	for len(got) < total {
		collect(t, rep, &got, &last, func() bool { return len(got) >= total })
		time.Sleep(2 * time.Millisecond)
	}
	requireExactlyOnce(t, "post-recovery subscriber", got, total)
}
