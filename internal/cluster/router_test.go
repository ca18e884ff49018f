package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/feed"
	"repro/internal/geo"
	"repro/internal/stream"
	"repro/internal/tracker"
)

func testFix(mmsi uint32, sec int64) ais.Fix {
	return ais.Fix{MMSI: mmsi, Pos: geo.Point{Lon: 23.5, Lat: 37.9}, Time: time.Unix(sec, 0).UTC()}
}

// A slice connection speaks the feed wire protocol: RESUME handshake,
// NMEA fixes, keepalive comments while idle, clean close on Finish.
func TestRouterSliceServesResumeAndHeartbeats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRouter(RouterOptions{Workers: 1, KeepaliveEvery: 30 * time.Millisecond})
	addrs, err := r.ListenSlices(ctx, nil)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	for i := int64(0); i < 4; i++ {
		r.Dispatch(testFix(7, 2000+i))
	}

	conn, err := net.DialTimeout("tcp", addrs[0].String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "RESUME %d\n", 2001)
	sc := bufio.NewScanner(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))

	var fixes, heartbeats int
	for fixes < 2 || heartbeats < 1 {
		if !sc.Scan() {
			t.Fatalf("stream ended early (fixes=%d heartbeats=%d): %v", fixes, heartbeats, sc.Err())
		}
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HB "):
			heartbeats++
		case strings.Contains(line, " !AIVDM,"):
			fixes++
		default:
			t.Fatalf("unexpected line %q", line)
		}
	}

	// Finish drains the connection cleanly: EOF, no torn line.
	r.Finish()
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "# HB ") {
			t.Fatalf("unexpected line after finish: %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not close cleanly: %v", err)
	}

	// The server accounts the connection once it has closed it.
	deadline := time.Now().Add(2 * time.Second)
	for r.Stats().Slices[0].ClientsServed == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := r.Stats().Slices[0]
	if st.Resumes != 1 || st.ResumeSkipped != 2 {
		t.Errorf("want 1 resume skipping 2 fixes, got %d/%d", st.Resumes, st.ResumeSkipped)
	}
	if st.Heartbeats == 0 {
		t.Error("no heartbeats counted")
	}
	if st.ClientsServed != 1 {
		t.Errorf("want 1 client served, got %d", st.ClientsServed)
	}
}

// Vessels are partitioned by the same hash boundary the in-process
// tracker shards use, and the upstream cursor covers every dispatch.
func TestRouterPartitionsAndCursor(t *testing.T) {
	r := NewRouter(RouterOptions{Workers: 4})
	for i := int64(0); i < 100; i++ {
		r.Dispatch(testFix(uint32(100+i), 3000+i/10))
	}
	st := r.Stats()
	if st.Dispatched != 100 {
		t.Fatalf("dispatched %d of 100", st.Dispatched)
	}
	nonEmpty := 0
	for _, s := range st.Slices {
		if s.Dispatched > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("hash partitioning degenerated: %d of 4 slices used", nonEmpty)
	}
	if cur := r.Cursor(); cur.Sec != 3009 {
		t.Errorf("upstream cursor at %d, want 3009", cur.Sec)
	}
}

// Fixes already in feed-wire form come back off a router slice
// bit-identical: the slices serve the same NMEA wire the upstream feed
// does, so routing changes no coordinate and every cluster width sees
// the single-process input.
func TestRouterWireIsIdempotent(t *testing.T) {
	_, raw := testFleet(t, 40, 2)
	fixes := canonFixes(t, raw)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 2
	r := NewRouter(RouterOptions{Workers: workers, RetainFixes: len(fixes)})
	addrs, err := r.ListenSlices(ctx, nil)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	for _, f := range fixes {
		r.Dispatch(f)
	}
	r.Finish()

	var read int
	for i, addr := range addrs {
		var want []ais.Fix
		for _, f := range fixes {
			if tracker.ShardOf(f.MMSI, workers) == i {
				want = append(want, f)
			}
		}
		c, err := feed.DialReconnecting(addr.String(), feed.DefaultRetryPolicy())
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		got, err := stream.Collect(c)
		c.Close()
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("slice %d: read %d fixes, dispatched %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].MMSI != want[j].MMSI || got[j].Pos != want[j].Pos || !got[j].Time.Equal(want[j].Time) {
				t.Fatalf("slice %d fix %d: read %v (%.9f, %.9f), dispatched %v (%.9f, %.9f)", i, j,
					got[j], got[j].Pos.Lon, got[j].Pos.Lat, want[j], want[j].Pos.Lon, want[j].Pos.Lat)
			}
		}
		read += len(got)
	}
	if read != len(fixes) {
		t.Fatalf("read %d fixes across the slices, dispatched %d", read, len(fixes))
	}
}
