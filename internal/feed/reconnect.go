package feed

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ais"
)

// RetryPolicy governs how a ReconnectingClient re-dials a dropped feed:
// exponential backoff with jitter, a cap, and a bound on consecutive
// failures. The zero value is not useful; start from DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxAttempts is the number of consecutive failed dials tolerated
	// before the client gives up and surfaces the error.
	MaxAttempts int
	// InitialBackoff is the delay before the first retry.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Multiplier grows the backoff per consecutive failure (≥ 1).
	Multiplier float64
	// Jitter spreads each delay uniformly in ±Jitter·backoff, so a fleet
	// of clients does not re-dial a recovering server in lockstep.
	Jitter float64
	// ResetOnSuccess restarts the backoff schedule and failure count
	// after any successful connection, so a fresh outage after a healthy
	// period starts again from InitialBackoff.
	ResetOnSuccess bool
	// DialTimeout bounds each individual dial.
	DialTimeout time.Duration
	// Seed makes the jitter deterministic (tests); 0 derives one from
	// the policy itself, which is deterministic too.
	Seed int64
}

// DefaultRetryPolicy returns the policy used by the live drivers:
// 100 ms → 5 s exponential backoff with 20% jitter, up to 10
// consecutive failures, resetting after every successful connection.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    10,
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     5 * time.Second,
		Multiplier:     2,
		Jitter:         0.2,
		ResetOnSuccess: true,
		DialTimeout:    5 * time.Second,
	}
}

// NetStats counts the transport-level life of a reconnecting client.
type NetStats struct {
	DialAttempts  int // dials tried, including the first connect
	DialFailures  int // dials that errored
	Disconnects   int // established connections lost mid-stream
	Reconnects    int // connections re-established after a loss
	Resumes       int // RESUME handshake lines sent
	ResumeSkipped int // duplicate fixes discarded during resume catch-up
	// DeadPeers counts connections abandoned because the peer sent
	// nothing — not even a keepalive heartbeat — for DeadPeerTimeout.
	// It distinguishes a hung peer from an idle stream: a healthy but
	// quiet server keeps the connection alive with "# HB" lines, so a
	// read timeout means the peer is gone, not just silent. Dead-peer
	// drops are also counted in Disconnects.
	DeadPeers int
}

// ReconnectingClient is a FixSource over a live feed that survives
// transport faults: when the connection drops mid-stream it re-dials
// with exponential backoff and jitter, asks the server to resume just
// before the last fix it saw ("RESUME <unix>"), and discards the
// duplicates replayed around the cursor so the pipeline observes each
// fix at most once. It assumes the upstream replays fixes in
// non-decreasing timestamp order (as feed.Server does); a server that
// ignores the handshake only costs replayed traffic, which the client
// skips client-side.
type ReconnectingClient struct {
	policy RetryPolicy
	dial   func() (net.Conn, error)
	// Logf receives lifecycle messages; nil silences them.
	Logf func(format string, args ...any)
	// DeadPeerTimeout, when positive, bounds how long a read may go
	// without any bytes from the peer before the connection is declared
	// dead and re-dialed (counted in NetStats.DeadPeers). Pair it with
	// a server that emits keepalive heartbeats more often than this, so
	// only a truly hung peer trips it. Set before the first Scan.
	DeadPeerTimeout time.Duration

	mu   sync.Mutex // guards conn, net, acc, live (Close races Scan)
	conn net.Conn
	// closed is written under mu (Close hands conn over with it) and read
	// without: Scan checks it once per fix.
	closed  atomic.Bool
	closeCh chan struct{}
	net     NetStats

	scanner *ais.Scanner
	// acc folds the counters of finished connections; live is a
	// snapshot of the active scanner's counters, refreshed whenever the
	// scanner goes back to the connection for more bytes (connReader) —
	// so it is current whenever Scan blocks on the wire, and at most one
	// read buffer of lines behind while Scan is decoding. Both are
	// guarded by mu so Stats can be sampled from another goroutine
	// (health probes) while Scan runs — the scanner itself must never be
	// read concurrently.
	acc  ais.ScannerStats
	live ais.ScannerStats
	fix  ais.Fix
	err  error

	// Resume cursor: the newest fix second seen, the vessel of every
	// fix seen at that second (one entry per fix, so a vessel's count
	// is its multiplicity; the counts are built only at a reconnect),
	// and the dedupe budget armed at the last reconnect.
	curSec    int64
	seenAtSec []uint32
	skipAtSec map[uint32]int
	resuming  bool

	rng        *rand.Rand
	backoff    time.Duration
	consecFail int

	// dialed is set by the first connection; redial makes the next Scan
	// connect again, as a reconnect (SeedCursor); interrupted makes Scan
	// return false until then (Interrupt).
	dialed      bool
	redial      bool
	interrupted atomic.Bool
}

// DialReconnecting connects to a feed server with the given retry
// policy; the initial connect itself retries per the policy.
func DialReconnecting(addr string, policy RetryPolicy) (*ReconnectingClient, error) {
	c := NewReconnecting(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, policy.DialTimeout)
	}, policy)
	if !c.connect(false) {
		return nil, fmt.Errorf("feed: dial %s: %w", addr, c.err)
	}
	return c, nil
}

// NewReconnecting builds a client over an arbitrary dial function
// (tests inject listeners or pipes); the first connection is made
// lazily on the first Scan.
func NewReconnecting(dial func() (net.Conn, error), policy RetryPolicy) *ReconnectingClient {
	if policy.Multiplier < 1 {
		policy.Multiplier = 1
	}
	if policy.MaxAttempts <= 0 {
		policy.MaxAttempts = 1
	}
	seed := policy.Seed
	if seed == 0 {
		seed = 1
	}
	return &ReconnectingClient{
		policy:  policy,
		dial:    dial,
		closeCh: make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
		backoff: policy.InitialBackoff,
	}
}

// Scan advances to the next fix, transparently re-dialing and resuming
// across connection losses. It returns false when the feed finishes
// cleanly, the client is closed, or the retry policy is exhausted (see
// Err to distinguish).
func (c *ReconnectingClient) Scan() bool {
	for {
		if c.isClosed() || c.interrupted.Load() {
			return false
		}
		if c.scanner == nil && !c.connect(c.redial) {
			return false
		}
		if c.scanner.Scan() {
			f := c.scanner.Fix()
			if c.resumeSkip(f) {
				c.count(func(n *NetStats) { n.ResumeSkipped++ })
				continue
			}
			c.noteSeen(f)
			c.fix = f
			return true
		}
		err := c.scanner.Err()
		c.foldScanner()
		c.dropConn()
		if c.interrupted.Load() {
			return false
		}
		if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return false // the feed finished cleanly
		}
		if c.isClosed() {
			return false
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			// No bytes — not even a heartbeat — within DeadPeerTimeout:
			// the peer is hung, not idle.
			c.count(func(n *NetStats) { n.DeadPeers++ })
			c.logf("peer silent past %s: declared dead", c.DeadPeerTimeout)
		}
		c.count(func(n *NetStats) { n.Disconnects++ })
		c.logf("connection lost after %s: %v", time.Unix(c.curSec, 0).UTC().Format(time.RFC3339), err)
		if !c.connect(true) {
			if c.err == nil {
				c.err = err
			}
			return false
		}
	}
}

// connect dials until it succeeds or the policy is exhausted, then arms
// the resume machinery. reconnected marks re-dials after a loss (the
// first connect is not a reconnect).
func (c *ReconnectingClient) connect(reconnected bool) bool {
	for {
		if c.isClosed() || c.interrupted.Load() {
			return false
		}
		c.count(func(n *NetStats) { n.DialAttempts++ })
		conn, err := c.dial()
		if err == nil {
			c.mu.Lock()
			if c.closed.Load() {
				c.mu.Unlock()
				conn.Close()
				return false
			}
			c.conn = conn
			c.mu.Unlock()
			c.dialed, c.redial = true, false
			if c.policy.ResetOnSuccess {
				c.backoff = c.policy.InitialBackoff
				c.consecFail = 0
			}
			c.scanner = ais.NewScanner(&connReader{c: c, conn: conn, timeout: c.DeadPeerTimeout})
			if reconnected {
				c.count(func(n *NetStats) { n.Reconnects++ })
			}
			// Always greet the server so a handshake-enabled server does
			// not burn its HandshakeWait. On a fresh session the cursor is
			// -1 ("everything"); on resume it is curSec-1, asking for
			// replay strictly after it so same-second siblings of the last
			// fix (possibly cut off mid-line) are resent — the per-vessel
			// counts discard the ones already seen.
			cursor := int64(-1)
			if c.curSec > 0 {
				cursor = c.curSec - 1
			}
			fmt.Fprintf(conn, "RESUME %d\n", cursor)
			if c.curSec > 0 {
				c.count(func(n *NetStats) { n.Resumes++ })
				c.skipAtSec = make(map[uint32]int, len(c.seenAtSec))
				for _, mmsi := range c.seenAtSec {
					c.skipAtSec[mmsi]++
				}
				c.resuming = true
				c.logf("reconnected, resuming after %d", cursor)
			}
			return true
		}
		c.count(func(n *NetStats) { n.DialFailures++ })
		c.consecFail++
		if c.consecFail >= c.policy.MaxAttempts {
			c.err = err
			return false
		}
		if !c.sleep(c.jittered(c.backoff)) {
			return false
		}
		c.backoff = time.Duration(float64(c.backoff) * c.policy.Multiplier)
		if c.policy.MaxBackoff > 0 && c.backoff > c.policy.MaxBackoff {
			c.backoff = c.policy.MaxBackoff
		}
	}
}

// connReader is what the scanner reads the connection through. The
// scanner only reads when its buffer holds no complete line, so each
// Read is one buffer refill: it publishes the scanner's counters (one
// lock per refill instead of one per fix, and current whenever the read
// blocks) and, with a DeadPeerTimeout, arms the read deadline, so a
// peer that stops sending (data or heartbeats) surfaces as a timeout
// error instead of blocking the scanner forever.
type connReader struct {
	c       *ReconnectingClient
	conn    net.Conn
	timeout time.Duration
}

func (r *connReader) Read(p []byte) (int, error) {
	c := r.c
	st := c.scanner.Stats() // Read runs inside c.scanner.Scan
	c.mu.Lock()
	c.live = st
	c.mu.Unlock()
	if r.timeout > 0 {
		if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
			return 0, err
		}
	}
	return r.conn.Read(p)
}

// jittered spreads d by ±Jitter·d.
func (c *ReconnectingClient) jittered(d time.Duration) time.Duration {
	if c.policy.Jitter <= 0 || d <= 0 {
		return d
	}
	spread := 1 + c.policy.Jitter*(2*c.rng.Float64()-1)
	return time.Duration(float64(d) * spread)
}

// sleep waits d, interruptible by Close.
func (c *ReconnectingClient) sleep(d time.Duration) bool {
	if d <= 0 {
		return !c.isClosed()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closeCh:
		return false
	}
}

// resumeSkip reports whether f is a duplicate replayed around the
// resume cursor and must be discarded.
func (c *ReconnectingClient) resumeSkip(f ais.Fix) bool {
	if !c.resuming {
		return false
	}
	u := f.Time.Unix()
	switch {
	case u < c.curSec:
		return true // replayed history (server ignored the handshake)
	case u == c.curSec:
		if c.skipAtSec[f.MMSI] > 0 {
			c.skipAtSec[f.MMSI]--
			return true
		}
		return false // a same-second sibling we had not seen yet
	default:
		c.resuming = false // past the cursor: caught up
		return false
	}
}

// noteSeen advances the resume cursor past f.
func (c *ReconnectingClient) noteSeen(f ais.Fix) {
	u := f.Time.Unix()
	if u > c.curSec {
		c.curSec = u
		c.seenAtSec = c.seenAtSec[:0]
	}
	if u == c.curSec {
		c.seenAtSec = append(c.seenAtSec, f.MMSI)
	}
}

// Fix returns the current fix.
func (c *ReconnectingClient) Fix() ais.Fix { return c.fix }

// Err returns the terminal error: nil after a clean finish or Close,
// the last dial error when the retry policy was exhausted.
func (c *ReconnectingClient) Err() error {
	if c.isClosed() {
		return nil
	}
	return c.err
}

// Stats returns the scanner counters accumulated across every
// connection of the session.
func (c *ReconnectingClient) Stats() ais.ScannerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acc.Add(c.live)
}

// NetStats returns the reconnect/resume counters.
func (c *ReconnectingClient) NetStats() NetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.net
}

func (c *ReconnectingClient) count(fn func(*NetStats)) {
	c.mu.Lock()
	fn(&c.net)
	c.mu.Unlock()
}

// Close terminates the client; a Scan blocked in a read or a backoff
// sleep returns false promptly.
func (c *ReconnectingClient) Close() error {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return nil
	}
	c.closed.Store(true)
	close(c.closeCh)
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

func (c *ReconnectingClient) isClosed() bool { return c.closed.Load() }

// Interrupt makes the Scan in progress, if any, and every later one
// return false — as at the end of the feed, but without closing the
// client — until SeedCursor rewinds it. Safe to call from any
// goroutine.
func (c *ReconnectingClient) Interrupt() {
	c.interrupted.Store(true)
	c.dropConn()
}

// foldScanner retires the current connection's scanner, folding its
// counters into the client's.
func (c *ReconnectingClient) foldScanner() {
	c.mu.Lock()
	c.acc = c.acc.Add(c.scanner.Stats())
	c.live = ais.ScannerStats{}
	c.mu.Unlock()
	c.scanner = nil
}

// dropConn closes and forgets the current connection without marking
// the client closed.
func (c *ReconnectingClient) dropConn() {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (c *ReconnectingClient) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
