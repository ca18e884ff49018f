package faults

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
)

// startUpstream serves the given lines to every connection.
func startUpstream(t *testing.T, lines []string) string {
	t.Helper()
	return startGatedUpstream(t, lines, nil)
}

// startGatedUpstream is startUpstream holding every connection's lines
// back until gate is closed (nil: no gate). A test whose plan resets
// within the first few lines needs it: on loopback the proxy can accept,
// relay and RST before the client's connect() has been observed to
// complete, and Dial then fails with ECONNRESET instead of the read.
func startGatedUpstream(t *testing.T, lines []string, gate <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if gate != nil {
					<-gate
				}
				for _, l := range lines {
					if _, err := io.WriteString(c, l+"\n"); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// startProxy serves p on an ephemeral port until the test ends.
func startProxy(t *testing.T, p *Proxy) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- p.ListenAndServe(ctx, "127.0.0.1:0", addrCh) }()
	select {
	case addr := <-addrCh:
		t.Cleanup(func() {
			cancel()
			if err := <-errCh; err != nil {
				t.Errorf("proxy: %v", err)
			}
		})
		return addr.String()
	case err := <-errCh:
		t.Fatalf("proxy failed to start: %v", err)
		return ""
	}
}

func testLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d !AIVDM,1,1,,A,payload%04d,0*00", 1243814400+i, i)
	}
	return lines
}

// readAll drains a connection line-wise, returning complete lines, any
// trailing partial line, and the terminal error.
func readAll(conn net.Conn) (lines []string, partial string, err error) {
	r := bufio.NewReader(conn)
	for {
		s, rerr := r.ReadString('\n')
		if strings.HasSuffix(s, "\n") {
			lines = append(lines, strings.TrimRight(s, "\n"))
		} else if s != "" {
			partial = s
		}
		if rerr != nil {
			return lines, partial, rerr
		}
	}
}

func TestProxyPassthrough(t *testing.T) {
	want := testLines(50)
	p := &Proxy{Upstream: startUpstream(t, want), Logf: t.Logf}
	addr := startProxy(t, p)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, partial, rerr := readAll(conn)
	if rerr != io.EOF || partial != "" {
		t.Fatalf("clean relay ended with err=%v partial=%q", rerr, partial)
	}
	if len(got) != len(want) {
		t.Fatalf("relayed %d lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
	if s := p.Stats(); s != (Stats{Connections: 1}) {
		t.Errorf("clean relay injected faults: %+v", s)
	}
}

func TestProxyCorruptionIsSeededAndRecorded(t *testing.T) {
	want := testLines(30)
	run := func() ([]string, []string) {
		p := &Proxy{
			Upstream: startUpstream(t, want),
			Plan:     Plan{Seed: 42, CorruptEvery: 7},
		}
		addr := startProxy(t, p)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		got, _, _ := readAll(conn)
		return got, p.CorruptedLines()
	}
	got1, rec1 := run()
	got2, rec2 := run()
	if len(got1) != len(want) {
		t.Fatalf("relayed %d lines, want %d", len(got1), len(want))
	}
	wantCorrupt := len(want) / 7
	corrupted := 0
	for i := range got1 {
		if got1[i] != want[i] {
			corrupted++
			if (i+1)%7 != 0 {
				t.Errorf("line %d corrupted, but only every 7th should be", i)
			}
			// Exactly one byte differs, and never the timestamp prefix.
			diffs := 0
			for j := range got1[i] {
				if got1[i][j] != want[i][j] {
					diffs++
					if j < strings.IndexByte(want[i], '!') {
						t.Errorf("line %d corrupted before the payload at byte %d", i, j)
					}
				}
			}
			if diffs != 1 {
				t.Errorf("line %d has %d corrupted bytes, want 1", i, diffs)
			}
		}
	}
	if corrupted != wantCorrupt {
		t.Errorf("corrupted %d lines, want %d", corrupted, wantCorrupt)
	}
	if len(rec1) != wantCorrupt {
		t.Errorf("recorded %d corrupted lines, want %d", len(rec1), wantCorrupt)
	}
	for i, l := range rec1 {
		if l != want[(i+1)*7-1] {
			t.Errorf("recorded line %d = %q, want the original %q", i, l, want[(i+1)*7-1])
		}
	}
	// Same seed, same upstream → byte-identical faults.
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("corruption is not deterministic at line %d", i)
		}
	}
	if len(rec1) != len(rec2) {
		t.Fatalf("fault records differ across identical runs")
	}
}

func TestProxyResetTruncatesMidLine(t *testing.T) {
	want := testLines(40)
	dialed := make(chan struct{})
	p := &Proxy{
		Upstream: startGatedUpstream(t, want, dialed),
		Plan:     Plan{ResetAfterLines: []int{10}, TruncateOnReset: true},
		Logf:     t.Logf,
	}
	addr := startProxy(t, p)
	conn, err := net.Dial("tcp", addr)
	close(dialed)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, partial, rerr := readAll(conn)
	if rerr == nil || errors.Is(rerr, io.EOF) {
		t.Fatalf("reset surfaced as a clean end (err=%v); want a transport error", rerr)
	}
	if len(got) != 10 {
		t.Fatalf("received %d complete lines before the reset, want 10", len(got))
	}
	if partial == "" || !strings.HasPrefix(want[10], partial) {
		t.Errorf("truncated tail %q is not a prefix of line 11 %q", partial, want[10])
	}
	st := p.Stats()
	if st.Resets != 1 || st.TruncatedLines != 1 {
		t.Errorf("stats = %+v, want 1 reset / 1 truncation", st)
	}
	if tr := p.TruncatedLines(); len(tr) != 1 || tr[0] != want[10] {
		t.Errorf("TruncatedLines = %v, want the original line 11", tr)
	}
	// A second connection indexes the next plan entry: none → clean.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	got2, _, rerr2 := readAll(conn2)
	if rerr2 != io.EOF || len(got2) != len(want) {
		t.Errorf("second connection: %d lines, err %v; want clean full replay", len(got2), rerr2)
	}
}

func TestProxyDuplicationAndReordering(t *testing.T) {
	want := testLines(12)
	p := &Proxy{
		Upstream: startUpstream(t, want),
		Plan:     Plan{DuplicateEvery: 5, ReorderEvery: 4},
	}
	addr := startProxy(t, p)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, _, _ := readAll(conn)

	counts := make(map[string]int)
	for _, l := range got {
		counts[l]++
	}
	st := p.Stats()
	if st.DuplicatedLines == 0 || st.ReorderedLines == 0 {
		t.Fatalf("stats = %+v, want duplications and reorderings", st)
	}
	dups := 0
	for i, l := range want {
		n := counts[l]
		if n < 1 {
			t.Errorf("line %d lost by duplication/reordering: %q", i, l)
		}
		dups += n - 1
	}
	if dups != st.DuplicatedLines {
		t.Errorf("observed %d duplicates, stats say %d", dups, st.DuplicatedLines)
	}
	// Line 4 (index 3) is held back and must arrive after line 5.
	pos := func(l string) int {
		for i, g := range got {
			if g == l {
				return i
			}
		}
		return -1
	}
	if pos(want[3]) < pos(want[4]) {
		t.Errorf("line 4 was not reordered after line 5: positions %d vs %d", pos(want[3]), pos(want[4]))
	}
}
