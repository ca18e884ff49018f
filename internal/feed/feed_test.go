package feed

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/fleetsim"
	"repro/internal/geo"
	"repro/internal/stream"
)

var t0 = time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)

func testFixes(n int) []ais.Fix {
	fixes := make([]ais.Fix, n)
	pos := geo.Point{Lon: 24, Lat: 37}
	for i := 0; i < n; i++ {
		pos = geo.Destination(pos, 90, 300)
		fixes[i] = ais.Fix{
			MMSI: 237000000 + uint32(i%3),
			Pos:  pos,
			Time: t0.Add(time.Duration(i) * time.Minute),
		}
	}
	return fixes
}

// startServer runs a static replay of fixes over a loopback listener,
// reading the greeting every ReconnectingClient sends, and returns the
// server, its address, and a shutdown func.
func startServer(t *testing.T, fixes []ais.Fix, speedup float64) (*Server, string, func()) {
	t.Helper()
	return startServerWith(t, &Server{
		Source: NewReplay(fixes), Speedup: speedup, Logf: t.Logf,
		HandshakeWait: DefaultHandshakeWait,
	})
}

// dial connects the one feed client to addr.
func dial(t *testing.T, addr string) *ReconnectingClient {
	t.Helper()
	c, err := DialReconnecting(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFeedRoundTrip(t *testing.T) {
	fixes := testFixes(50)
	srv, addr, shutdown := startServer(t, fixes, 0) // replay at full speed
	defer shutdown()

	c := dial(t, addr)
	defer c.Close()

	got, err := stream.Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fixes) {
		t.Fatalf("received %d fixes, want %d", len(got), len(fixes))
	}
	// The server has finished streaming (the client read to EOF); it
	// accounts the completed connection shortly after.
	deadline := time.Now().Add(2 * time.Second)
	for srv.ClientsServed() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.ClientsServed() != 1 {
		t.Errorf("ClientsServed = %d, want 1", srv.ClientsServed())
	}
	for i := range got {
		if got[i].MMSI != fixes[i].MMSI {
			t.Fatalf("fix %d MMSI = %d, want %d", i, got[i].MMSI, fixes[i].MMSI)
		}
		if !got[i].Time.Equal(fixes[i].Time) {
			t.Fatalf("fix %d time drifted", i)
		}
		// AIS position resolution is 1/10000 arc-minute (~0.2 m).
		if d := geo.Haversine(got[i].Pos, fixes[i].Pos); d > 0.5 {
			t.Fatalf("fix %d position drifted %.2f m over the wire", i, d)
		}
	}
	if c.Stats().Dropped() != 0 {
		t.Errorf("clean feed dropped lines: %+v", c.Stats())
	}
}

func TestFeedServesMultipleClients(t *testing.T) {
	fixes := testFixes(30)
	_, addr, shutdown := startServer(t, fixes, 0)
	defer shutdown()

	results := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			c, err := DialReconnecting(addr, testPolicy())
			if err != nil {
				results <- -1
				return
			}
			defer c.Close()
			got, err := stream.Collect(c)
			if err != nil {
				results <- -1
				return
			}
			results <- len(got)
		}()
	}
	for i := 0; i < 3; i++ {
		if n := <-results; n != len(fixes) {
			t.Fatalf("client received %d fixes, want %d", n, len(fixes))
		}
	}
}

func TestFeedPacing(t *testing.T) {
	// 10 fixes one minute apart at 1200× speedup: the replay should take
	// roughly 9*60/1200 = 450 ms of wall time.
	fixes := testFixes(10)
	_, addr, shutdown := startServer(t, fixes, 1200)
	defer shutdown()

	c := dial(t, addr)
	defer c.Close()
	start := time.Now()
	got, err := stream.Collect(c)
	elapsed := time.Since(start)
	if err != nil || len(got) != len(fixes) {
		t.Fatalf("collect: %d fixes, err %v", len(got), err)
	}
	if elapsed < 300*time.Millisecond {
		t.Errorf("paced replay finished in %v, expected ≥ 300ms", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Errorf("paced replay took %v, pacing badly off", elapsed)
	}
}

// Closing the client mid-stream unblocks a Scan waiting on a slow
// replay, and a closed client reports no error.
func TestReconnectingCloseMidStream(t *testing.T) {
	fixes := testFixes(5000)
	_, addr, shutdown := startServer(t, fixes, 5) // slow replay
	defer shutdown()

	c := dial(t, addr)
	done := make(chan int, 1)
	go func() {
		n := 0
		for c.Scan() {
			n++
		}
		done <- n
	}()
	time.Sleep(200 * time.Millisecond)
	c.Close()
	select {
	case n := <-done:
		if n >= len(fixes) {
			t.Errorf("read all %d fixes of a replay that takes hours", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Scan did not return after Close mid-stream")
	}
	if err := c.Err(); err != nil {
		t.Errorf("Err() after Close = %v, want nil", err)
	}
}

func TestClientOverPipe(t *testing.T) {
	// NewReconnecting reads from any net.Conn; exercise it with net.Pipe.
	server, client := net.Pipe()
	go func() {
		defer server.Close()
		io.ReadFull(server, make([]byte, len("RESUME -1\n"))) // the greeting
		r := &ais.PositionReport{Type: 1, MMSI: 237000009, Lon: 24.5, Lat: 37.5}
		lines, _ := ais.EncodeSentences(r, "A", 0)
		server.Write([]byte("1243814400 " + lines[0] + "\n"))
	}()
	c := NewReconnecting(func() (net.Conn, error) { return client, nil }, testPolicy())
	defer c.Close()
	if !c.Scan() {
		t.Fatal("no fix over pipe")
	}
	if c.Fix().MMSI != 237000009 {
		t.Errorf("MMSI = %d", c.Fix().MMSI)
	}
}

// TestStaticReplayDigestPinned pins the bytes a client reads from an
// unpaced static replay without a handshake. Load generators encode
// their input "exactly as feed.Server does"; this digest is what holds
// them to it. It was computed before the router's slices became feed
// servers and must not move.
func TestStaticReplayDigestPinned(t *testing.T) {
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = 20
	cfg.Duration = time.Hour
	fixes := fleetsim.NewSimulator(cfg).Run()
	_, addr, shutdown := startServerWith(t, &Server{Source: NewReplay(fixes)})
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	b, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	const want = "2d3a4fa39083a54042cf63d0e57381d849179ca21ef55711ef17135e378fe4c0"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(fixes) != 516 || len(b) != 30444 || got != want {
		t.Errorf("%d fixes served as %d bytes, sha256 %s; want 516 fixes, 30444 bytes, %s",
			len(fixes), len(b), got, want)
	}
}

// A client that stops reading is dropped once a write has been blocked
// for the write timeout; the drop is counted and reaches the client as
// a reset, not the clean end of a finished feed.
func TestServerDropsClientThatStopsReading(t *testing.T) {
	old := writeTimeout
	writeTimeout = 50 * time.Millisecond
	defer func() { writeTimeout = old }()

	// The stream must not fit in the socket buffers, or the server
	// finishes writing before the client's silence matters.
	srv, addr, shutdown := startServerWith(t, &Server{Source: NewReplay(testFixes(200000)), Logf: t.Logf})
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4096)

	deadline := time.Now().Add(5 * time.Second)
	for srv.ClientsServed() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.Stats(); st.ClientsServed != 1 || st.WriteErrors != 1 {
		t.Fatalf("a client that never reads: %+v, want it served once and dropped on a write error", st)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("a dropped client read %v, want a connection reset", err)
	}
}

func TestRingTrimAccounting(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(ais.Fix{MMSI: 1, Time: t0.Add(time.Duration(i) * time.Second)})
	}
	if st := r.Stats(); st.Appended != 10 || st.Trimmed != 6 {
		t.Fatalf("want 10 appended / 6 trimmed, got %+v", st)
	}
	// A position off the horizon resumes at the oldest retained fix.
	fixes, first, done, _ := r.window(0)
	if len(fixes) != 4 || first != 6 || !fixes[0].Time.Equal(t0.Add(6*time.Second)) {
		t.Fatalf("window after trim: %d fixes from seq %d", len(fixes), first)
	}
	if done {
		t.Fatal("a live ring reported done before Finish")
	}
}

func TestRingResumePos(t *testing.T) {
	r := NewRing(100)
	for i := 0; i < 5; i++ {
		r.Append(ais.Fix{MMSI: 1, Time: t0.Add(time.Duration(i) * time.Second)})
	}
	cursor := t0.Unix() + 2
	if pos, skipped := r.resumePos(&cursor); pos != 3 || skipped != 3 {
		t.Fatalf("resume after t0+2s: want pos=3 skipped=3, got %d/%d", pos, skipped)
	}
	if pos, skipped := r.resumePos(nil); pos != 0 || skipped != 0 {
		t.Fatalf("full replay: want 0/0, got %d/%d", pos, skipped)
	}
}

// A client caught up with a live ring waits for the next append, and
// Finish ends its stream cleanly once drained.
func TestServerFollowsLiveRing(t *testing.T) {
	ring := NewRing(16)
	_, addr, shutdown := startServerWith(t, &Server{Source: ring, Logf: t.Logf, HandshakeWait: DefaultHandshakeWait})
	defer shutdown()
	fixes := testFixes(6)
	for _, f := range fixes[:3] {
		ring.Append(f)
	}
	c := dial(t, addr)
	defer c.Close()
	for i := range fixes {
		if i == 3 {
			for _, f := range fixes[3:] {
				ring.Append(f)
			}
			ring.Finish()
		}
		if !c.Scan() {
			t.Fatalf("stream ended after %d fixes: %v", i, c.Err())
		}
		if c.Fix().MMSI != fixes[i].MMSI || !c.Fix().Time.Equal(fixes[i].Time) {
			t.Fatalf("fix %d = %v, want %v", i, c.Fix(), fixes[i])
		}
	}
	if c.Scan() || c.Err() != nil {
		t.Fatalf("finished ring did not end the stream cleanly: %v", c.Err())
	}
}
