package feed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
)

// testPolicy retries fast so failure paths do not slow the suite.
func testPolicy() RetryPolicy {
	p := DefaultRetryPolicy()
	p.InitialBackoff = time.Millisecond
	p.MaxBackoff = 5 * time.Millisecond
	p.Seed = 7
	return p
}

// limitConn injects a transport fault: after budget bytes have been
// read, every Read fails with errInjectedReset.
type limitConn struct {
	net.Conn
	budget int
}

var errInjectedReset = errors.New("injected connection reset")

func (c *limitConn) Read(p []byte) (int, error) {
	if c.budget <= 0 {
		return 0, errInjectedReset
	}
	if len(p) > c.budget {
		p = p[:c.budget]
	}
	n, err := c.Conn.Read(p)
	c.budget -= n
	return n, err
}

// TestReconnectingClientResumes drops the transport twice mid-stream
// and checks the client reconnects, resumes via the handshake, and
// delivers every fix exactly once in order.
func TestReconnectingClientResumes(t *testing.T) {
	fixes := testFixes(200)
	srv := &Server{Source: NewReplay(fixes), Logf: t.Logf, HandshakeWait: DefaultHandshakeWait}
	_, addr, shutdown := startServerWith(t, srv)
	defer shutdown()

	dials := 0
	c := NewReconnecting(func() (net.Conn, error) {
		dials++
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		switch dials {
		case 1:
			return &limitConn{Conn: conn, budget: 900}, nil // dies mid-line
		case 2:
			return &limitConn{Conn: conn, budget: 2500}, nil
		default:
			return conn, nil
		}
	}, testPolicy())
	c.Logf = t.Logf
	defer c.Close()

	var got []ais.Fix
	for c.Scan() {
		got = append(got, c.Fix())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
	if len(got) != len(fixes) {
		t.Fatalf("received %d fixes, want %d (no loss, no duplicates)", len(got), len(fixes))
	}
	for i := range got {
		if got[i].MMSI != fixes[i].MMSI || !got[i].Time.Equal(fixes[i].Time) {
			t.Fatalf("fix %d = %v, want %v", i, got[i], fixes[i])
		}
	}
	ns := c.NetStats()
	if ns.Reconnects != 2 || ns.Disconnects != 2 {
		t.Errorf("NetStats = %+v, want 2 reconnects / 2 disconnects", ns)
	}
	if ns.Resumes != 2 {
		t.Errorf("Resumes = %d, want 2", ns.Resumes)
	}
	st := srv.Stats()
	if st.Resumes != 2 {
		t.Errorf("server Resumes = %d, want 2", st.Resumes)
	}
	if st.ResumeSkipped == 0 {
		t.Errorf("server skipped no fixes on resume: %+v", st)
	}
	// The cumulative scanner stats must account for every line every
	// connection saw, including partial lines cut by the fault.
	if s := c.Stats(); !s.Reconciles() {
		t.Errorf("cumulative scanner stats do not reconcile: %+v", s)
	}
}

// TestReconnectingClientResumesMidSecond cuts the connection inside a
// second at which vessel 7 has three fixes and vessel 8 two, after the
// client has taken two of 7's and one of 8's: the resume must discard
// exactly those three and deliver the rest of the second once, in order.
// A client seeded with a cursor over the same prefix must resume at
// the same place.
func TestReconnectingClientResumesMidSecond(t *testing.T) {
	sec := t0.Add(time.Minute)
	var fixes []ais.Fix
	add := func(mmsi uint32, at time.Time) {
		pos := geo.Point{Lon: 24 + float64(len(fixes))/100, Lat: 37}
		fixes = append(fixes, ais.Fix{MMSI: mmsi, Pos: pos, Time: at})
	}
	add(7, t0)
	add(8, t0)
	for _, m := range []uint32{7, 8, 7, 7, 8} {
		add(m, sec)
	}
	add(7, sec.Add(time.Second))
	add(8, sec.Add(time.Second))
	// The first connection carries the two fixes before sec, then 7, 8,
	// 7, then part of the next line.
	budget := 10
	for _, f := range fixes[:5] {
		lines, err := ais.EncodeSentences(&ais.PositionReport{Type: ais.TypePositionA, MMSI: f.MMSI,
			Lon: f.Pos.Lon, Lat: f.Pos.Lat, UTCSecond: f.Time.Second()}, "A", 0)
		if err != nil {
			t.Fatal(err)
		}
		budget += len(fmt.Sprintf("%d %s\n", f.Time.Unix(), lines[0]))
	}

	srv := &Server{Source: NewReplay(fixes), Logf: t.Logf, HandshakeWait: DefaultHandshakeWait}
	_, addr, shutdown := startServerWith(t, srv)
	defer shutdown()
	read := func(c *ReconnectingClient) []ais.Fix {
		defer c.Close()
		var got []ais.Fix
		for c.Scan() {
			got = append(got, c.Fix())
		}
		if err := c.Err(); err != nil {
			t.Fatalf("Err() = %v", err)
		}
		return got
	}
	want := read(dial(t, addr))
	if len(want) != len(fixes) {
		t.Fatalf("uninterrupted read delivered %d fixes, want %d", len(want), len(fixes))
	}

	dials := 0
	c := NewReconnecting(func() (net.Conn, error) {
		dials++
		conn, err := net.Dial("tcp", addr)
		if err == nil && dials == 1 {
			return &limitConn{Conn: conn, budget: budget}, nil
		}
		return conn, err
	}, testPolicy())
	c.Logf = t.Logf
	got := read(c)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed read delivered\n %v\nwant\n %v", got, want)
	}
	if ns := c.NetStats(); ns.Reconnects != 1 || ns.Resumes != 1 || ns.ResumeSkipped != 3 {
		t.Errorf("NetStats = %+v, want 1 reconnect, 1 resume, 3 fixes skipped (7 twice, 8 once)", ns)
	}

	var cur Cursor
	cur.NoteAll(want[:5])
	seeded, err := DialReconnectingFrom(addr, testPolicy(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(seeded); !reflect.DeepEqual(got, want[5:]) {
		t.Fatalf("client seeded with %+v delivered\n %v\nwant\n %v", cur, got, want[5:])
	}
}

// TestReconnectingClientExhaustsRetries pins the give-up path.
func TestReconnectingClientExhaustsRetries(t *testing.T) {
	p := testPolicy()
	p.MaxAttempts = 3
	dialErr := errors.New("refused")
	c := NewReconnecting(func() (net.Conn, error) { return nil, dialErr }, p)
	defer c.Close()
	if c.Scan() {
		t.Fatal("Scan succeeded with a dead dialer")
	}
	if !errors.Is(c.Err(), dialErr) {
		t.Errorf("Err() = %v, want %v", c.Err(), dialErr)
	}
	ns := c.NetStats()
	if ns.DialAttempts != 3 || ns.DialFailures != 3 {
		t.Errorf("NetStats = %+v, want 3 attempts / 3 failures", ns)
	}
}

// TestReconnectingClientCloseDuringBackoff checks Close interrupts the
// backoff sleep promptly.
func TestReconnectingClientCloseDuringBackoff(t *testing.T) {
	p := testPolicy()
	p.InitialBackoff = time.Hour
	p.MaxAttempts = 10
	c := NewReconnecting(func() (net.Conn, error) { return nil, errors.New("down") }, p)
	done := make(chan bool, 1)
	go func() { done <- c.Scan() }()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Scan returned true after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Scan did not return after Close during backoff")
	}
	if err := c.Err(); err != nil {
		t.Errorf("Err() after Close = %v, want nil", err)
	}
}

// startServerWith is startServer for a caller-built Server.
func startServerWith(t *testing.T, srv *Server) (*Server, string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(ctx, "127.0.0.1:0", addrCh) }()
	select {
	case addr := <-addrCh:
		return srv, addr.String(), func() {
			cancel()
			if err := <-errCh; err != nil {
				t.Errorf("server: %v", err)
			}
		}
	case err := <-errCh:
		t.Fatalf("server failed to start: %v", err)
		return nil, "", nil
	}
}

// TestServerCountsEncodeAndWriteErrors covers the structured drop
// counters that used to be log lines only.
func TestServerCountsEncodeAndWriteErrors(t *testing.T) {
	old := encodeSentences
	encodeSentences = func(r *ais.PositionReport, channel string, id int) ([]string, error) {
		if id == 3 { // fail exactly one fix
			return nil, errors.New("injected encode failure")
		}
		return old(r, channel, id)
	}
	defer func() { encodeSentences = old }()

	// The stream must not fit in the socket buffers, or the server can
	// finish writing before the slammed door is observable.
	fixes := testFixes(200000)
	srv := &Server{Source: NewReplay(fixes), Logf: t.Logf}
	_, addr, shutdown := startServerWith(t, srv)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).SetReadBuffer(4096)
	// Read a little, then slam the connection shut so a later write or
	// flush fails server-side.
	io.ReadFull(conn, make([]byte, 256))
	conn.(*net.TCPConn).SetLinger(0)
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.ClientsServed() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	if st.EncodeErrors != 1 {
		t.Errorf("EncodeErrors = %d, want 1", st.EncodeErrors)
	}
	if st.WriteErrors == 0 {
		t.Errorf("WriteErrors = %d, want ≥ 1 after the client slammed the door", st.WriteErrors)
	}
	if st.ClientsServed != 1 {
		t.Errorf("ClientsServed = %d, want 1", st.ClientsServed)
	}
}

// errConn is a net.Conn stub whose reads drain a string and then fail
// with a wrapped io.ErrUnexpectedEOF, the shape a feed that dies
// mid-line produces. Writes (the client's greeting) are discarded.
type errConn struct {
	net.Conn // nil; only Read/Write/Close are used
	r        io.Reader
	err      error
}

func (c *errConn) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF {
		return n, c.err
	}
	return n, err
}
func (c *errConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *errConn) Close() error                { return nil }

// TestClientErrFiltersWrappedEOFs pins the errors.Is-based filtering:
// an unexpected EOF after the feed delivered its data is a finished
// feed, not a transport error.
func TestClientErrFiltersWrappedEOFs(t *testing.T) {
	report := &ais.PositionReport{Type: 1, MMSI: 237000009, Lon: 24.5, Lat: 37.5}
	lines, _ := ais.EncodeSentences(report, "A", 0)
	data := "1243814400 " + lines[0] + "\n1243814401 !AIVDM,1,1"

	for _, wrapped := range []error{
		io.ErrUnexpectedEOF,
		fmt.Errorf("read tcp: %w", io.ErrUnexpectedEOF),
		fmt.Errorf("feed: %w", io.EOF),
	} {
		conn := &errConn{r: strings.NewReader(data), err: wrapped}
		c := NewReconnecting(func() (net.Conn, error) { return conn, nil }, testPolicy())
		n := 0
		for c.Scan() {
			n++
		}
		if err := c.Err(); err != nil {
			t.Errorf("Err() with %v = %v, want nil", wrapped, err)
		}
		if n != 1 {
			t.Errorf("scanned %d fixes, want 1", n)
		}
	}
}
