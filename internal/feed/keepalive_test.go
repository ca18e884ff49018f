package feed

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
)

// Keepalive heartbeats and dead-peer detection are two halves of one
// contract: an idle-but-healthy feed emits "# HB" comments more often
// than the client's DeadPeerTimeout, so only a truly hung peer trips
// the timeout and forces a reconnect.

func pacedFixes(gap time.Duration) []ais.Fix {
	base := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	return []ais.Fix{
		{MMSI: 111, Pos: geo.Point{Lon: 23.5, Lat: 37.9}, Time: base},
		{MMSI: 111, Pos: geo.Point{Lon: 23.6, Lat: 37.8}, Time: base.Add(gap)},
	}
}

// A paced server with KeepaliveEvery emits heartbeat comments through
// an idle stretch, and the client-side scanner skips them silently.
func TestServerKeepaliveHeartbeats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// 30 s of stream time at 100× ≈ 300 ms of wall idle between fixes.
	want := pacedFixes(30 * time.Second)
	srv := &Server{
		Source:         NewReplay(want),
		Speedup:        100,
		HandshakeWait:  200 * time.Millisecond,
		KeepaliveEvery: 40 * time.Millisecond,
	}
	addrCh := make(chan net.Addr, 1)
	go srv.ListenAndServe(ctx, "127.0.0.1:0", addrCh)
	addr := <-addrCh

	conn, err := net.DialTimeout("tcp", addr.String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "RESUME -1\n")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))

	var fixes, heartbeats int
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "# HB ") {
			heartbeats++
		} else {
			fixes++
		}
	}
	if fixes != len(want) {
		t.Errorf("received %d fix lines, want %d", fixes, len(want))
	}
	if heartbeats == 0 {
		t.Error("no heartbeat lines crossed the idle stretch")
	}
	if st := srv.Stats(); st.Heartbeats != heartbeats {
		t.Errorf("server counted %d heartbeats, client saw %d", st.Heartbeats, heartbeats)
	}
}

// With heartbeats flowing, a DeadPeerTimeout shorter than the idle
// stretch (but longer than the keepalive interval) never trips: the
// client can tell an idle stream from a dead peer.
func TestDeadPeerQuietWhenHeartbeatsFlow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fixes := pacedFixes(30 * time.Second)
	srv := &Server{
		Source:         NewReplay(fixes),
		Speedup:        100,
		HandshakeWait:  200 * time.Millisecond,
		KeepaliveEvery: 40 * time.Millisecond,
	}
	addrCh := make(chan net.Addr, 1)
	go srv.ListenAndServe(ctx, "127.0.0.1:0", addrCh)
	addr := <-addrCh

	policy := DefaultRetryPolicy()
	policy.InitialBackoff = 10 * time.Millisecond
	client := NewReconnecting(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr.String(), policy.DialTimeout)
	}, policy)
	client.DeadPeerTimeout = 120 * time.Millisecond
	defer client.Close()

	var got []ais.Fix
	for client.Scan() {
		got = append(got, client.Fix())
	}
	if err := client.Err(); err != nil {
		t.Fatalf("client error: %v", err)
	}
	if len(got) != len(fixes) {
		t.Fatalf("received %d fixes, want %d", len(got), len(fixes))
	}
	ns := client.NetStats()
	if ns.DeadPeers != 0 || ns.Reconnects != 0 {
		t.Errorf("heartbeat-fed client still tripped: %+v", ns)
	}
}

// A peer that goes silent mid-stream — no data, no heartbeats — trips
// the timeout: the drop is counted in DeadPeers, the client reconnects
// with a resume cursor, and the per-vessel dedupe discards the replayed
// prefix so every fix still arrives exactly once.
func TestDeadPeerTripsAndResumesWithoutHeartbeats(t *testing.T) {
	fixes := pacedFixes(30 * time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var held []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	go func() {
		// First connection: one fix, then dead silence. Second: a full
		// replay (the fake server ignores the cursor on purpose — the
		// client must dedupe the prefix itself) followed by a clean close.
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Drain the RESUME greeting so closing later sends a clean
			// FIN, not an RST over unread handshake bytes.
			bufio.NewReader(conn).ReadString('\n')
			if i == 0 {
				ais.WriteFixCSV(conn, fixes[0])
				mu.Lock()
				held = append(held, conn)
				mu.Unlock()
				continue
			}
			for _, f := range fixes {
				ais.WriteFixCSV(conn, f)
			}
			conn.Close()
		}
	}()

	policy := DefaultRetryPolicy()
	policy.InitialBackoff = 10 * time.Millisecond
	client := NewReconnecting(func() (net.Conn, error) {
		return net.DialTimeout("tcp", ln.Addr().String(), policy.DialTimeout)
	}, policy)
	client.DeadPeerTimeout = 100 * time.Millisecond
	defer client.Close()

	var got []ais.Fix
	for client.Scan() {
		got = append(got, client.Fix())
	}
	if err := client.Err(); err != nil {
		t.Fatalf("client error: %v", err)
	}
	if len(got) != len(fixes) {
		t.Fatalf("received %d fixes, want %d (dedupe across the resume failed?)", len(got), len(fixes))
	}
	ns := client.NetStats()
	if ns.DeadPeers == 0 {
		t.Errorf("silent mid-stream peer did not register as dead: %+v", ns)
	}
	if ns.Reconnects != 1 || ns.Resumes != 1 {
		t.Errorf("want exactly one resumed reconnect, got %+v", ns)
	}
	if ns.ResumeSkipped == 0 {
		t.Errorf("the replayed prefix was not deduplicated: %+v", ns)
	}
}

// A server that accepts and then hangs forever — no data at all — is
// declared dead after DeadPeerTimeout instead of blocking Scan.
func TestDeadPeerOnCompletelySilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var conns []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()
	go func() {
		// Hold the first connection open without sending a byte, then
		// stop listening so the re-dial after the dead-peer drop fails
		// and exhausts the retry policy.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		mu.Lock()
		conns = append(conns, conn)
		mu.Unlock()
		ln.Close()
	}()

	policy := DefaultRetryPolicy()
	policy.MaxAttempts = 1
	policy.InitialBackoff = 5 * time.Millisecond
	client := NewReconnecting(func() (net.Conn, error) {
		return net.DialTimeout("tcp", ln.Addr().String(), time.Second)
	}, policy)
	client.DeadPeerTimeout = 80 * time.Millisecond
	defer client.Close()

	done := make(chan bool, 1)
	go func() { done <- client.Scan() }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Scan produced a fix from a silent server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Scan blocked past DeadPeerTimeout on a silent peer")
	}
	if ns := client.NetStats(); ns.DeadPeers == 0 {
		t.Errorf("silent server not counted as a dead peer: %+v", ns)
	}
}
