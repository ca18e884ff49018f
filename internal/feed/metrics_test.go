package feed

import (
	"net"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestClientMetricsExport runs a short faulty session and checks the
// transport and drop counters surface in a scrape with the values the
// client's own Stats/NetStats report.
func TestClientMetricsExport(t *testing.T) {
	fixes := testFixes(50)
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
		if dials == 1 {
			return &limitConn{Conn: conn, budget: 700}, nil // force one reconnect
		}
		return conn, nil
	}, testPolicy())
	defer c.Close()

	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	n := 0
	for c.Scan() {
		n++
	}
	if n != len(fixes) {
		t.Fatalf("received %d fixes, want %d", n, len(fixes))
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"maritime_feed_dial_attempts_total 2",
		"maritime_feed_reconnects_total 1",
		"maritime_feed_disconnects_total 1",
		"maritime_feed_resumes_total 1",
		// Scanner-level count includes the dupes replayed around the
		// resume cursor, so compare against the client's own stats.
		"maritime_feed_fixes_total " + strconv.Itoa(c.Stats().Fixes),
		`maritime_feed_drops_total{cause="checksum"}`,
		`maritime_feed_drops_total{cause="malformed"}`,
		`maritime_feed_drops_total{cause="unsupported"}`,
		`maritime_feed_drops_total{cause="no-position"}`,
		`maritime_feed_drops_total{cause="fragment-loss"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}
