package feed

import (
	"fmt"
	"maps"
	"net"

	"repro/internal/ais"
)

// Cursor is an externally owned resume cursor over the fix stream: the
// newest fix second observed and how many fixes each vessel contributed
// at that second — the same bookkeeping ReconnectingClient keeps
// internally, exposed so a checkpointing driver can track exactly the
// fixes its pipeline has *processed* (not merely received; batching
// read-ahead means the client is always ahead of the pipeline) and hand
// the cursor back after a restart.
type Cursor struct {
	Sec       int64
	SeenAtSec map[uint32]int
}

// Note advances the cursor past one processed fix. Fixes must be noted
// in the order the pipeline consumed them.
func (c *Cursor) Note(f ais.Fix) {
	u := f.Time.Unix()
	if u > c.Sec {
		c.Sec = u
		clear(c.SeenAtSec)
	}
	if u == c.Sec {
		if c.SeenAtSec == nil {
			c.SeenAtSec = make(map[uint32]int)
		}
		c.SeenAtSec[f.MMSI]++
	}
}

// NoteAll advances the cursor past a batch of processed fixes, in the
// order the pipeline consumed them, leaving it exactly as a Note per
// fix would. Only the batch's newest second can survive in the cursor,
// so it finds that second and counts the fixes at it alone.
func (c *Cursor) NoteAll(fixes []ais.Fix) {
	if len(fixes) == 0 {
		return
	}
	top := fixes[0].Time.Unix()
	for _, f := range fixes[1:] {
		top = max(top, f.Time.Unix())
	}
	if top < c.Sec {
		return
	}
	if top > c.Sec {
		c.Sec = top
		clear(c.SeenAtSec)
	}
	if c.SeenAtSec == nil {
		c.SeenAtSec = make(map[uint32]int)
	}
	for _, f := range fixes {
		if f.Time.Unix() == top {
			c.SeenAtSec[f.MMSI]++
		}
	}
}

// Clone returns an independent copy.
func (c Cursor) Clone() Cursor {
	return Cursor{Sec: c.Sec, SeenAtSec: maps.Clone(c.SeenAtSec)}
}

// SeedCursor primes the client's resume cursor for its next
// connection, so that connect sends "RESUME <Sec-1>" and discards the
// replayed fixes the cursor already covers. Before the first Scan it
// seeds the first connection of a client built by NewReconnecting
// (which connects lazily). On a client already streaming it rewinds:
// the current connection is dropped, and the next Scan reconnects at
// the cursor, a reconnect and a resume. No Scan may run meanwhile — a
// Scan blocked on the connection is released with Interrupt first.
func (c *ReconnectingClient) SeedCursor(cur Cursor) {
	if c.dialed {
		if c.scanner != nil {
			c.foldScanner()
		}
		c.dropConn()
		c.redial = true
	}
	c.interrupted.Store(false)
	c.curSec = cur.Sec
	c.seenAtSec = c.seenAtSec[:0]
	for mmsi, n := range cur.SeenAtSec {
		for range n {
			c.seenAtSec = append(c.seenAtSec, mmsi)
		}
	}
}

// DialReconnectingFrom is DialReconnecting with a restored resume
// cursor: the very first connection performs the RESUME handshake at
// the cursor and discards the already-processed duplicates, so a
// process restarting from a checkpoint observes exactly the fixes after
// its checkpoint — exactly-once delivery across the crash.
func DialReconnectingFrom(addr string, policy RetryPolicy, cur Cursor) (*ReconnectingClient, error) {
	c := NewReconnecting(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, policy.DialTimeout)
	}, policy)
	c.SeedCursor(cur)
	if !c.connect(false) {
		return nil, fmt.Errorf("feed: dial %s: %w", addr, c.err)
	}
	return c, nil
}

// FixSource is the structural source interface ResumeFilter wraps; it
// matches stream.FixSource without importing the stream package.
type FixSource interface {
	Scan() bool
	Fix() ais.Fix
}

// ResumeFilter discards the prefix of a fix source a restored cursor
// already covers, with the same semantics as the reconnecting client's
// resume skip: everything before the cursor second is dropped; at the
// cursor second, each vessel's first N fixes are dropped where N is its
// count in the cursor. File and simulator replays use it so a
// checkpointed offline run resumes exactly-once, like the live path.
// The source must deliver fixes in non-decreasing timestamp order.
type ResumeFilter struct {
	src      FixSource
	sec      int64
	skip     map[uint32]int
	resuming bool
	skipped  int
	fix      ais.Fix
}

// NewResumeFilter wraps src, skipping what cur covers. A zero cursor
// passes everything through.
func NewResumeFilter(src FixSource, cur Cursor) *ResumeFilter {
	return &ResumeFilter{
		src:      src,
		sec:      cur.Sec,
		skip:     maps.Clone(cur.SeenAtSec),
		resuming: cur.Sec > 0,
	}
}

// Scan advances to the next fix not covered by the cursor.
func (r *ResumeFilter) Scan() bool {
	for r.src.Scan() {
		f := r.src.Fix()
		if r.resuming {
			u := f.Time.Unix()
			switch {
			case u < r.sec:
				r.skipped++
				continue
			case u == r.sec:
				if r.skip[f.MMSI] > 0 {
					r.skip[f.MMSI]--
					r.skipped++
					continue
				}
			default:
				r.resuming = false
			}
		}
		r.fix = f
		return true
	}
	return false
}

// Fix returns the current fix.
func (r *ResumeFilter) Fix() ais.Fix { return r.fix }

// Err surfaces the wrapped source's error when it reports one, making
// ResumeFilter a drop-in stream.FixSource.
func (r *ResumeFilter) Err() error {
	if s, ok := r.src.(interface{ Err() error }); ok {
		return s.Err()
	}
	return nil
}

// Skipped returns how many already-processed fixes were discarded.
func (r *ResumeFilter) Skipped() int { return r.skipped }
