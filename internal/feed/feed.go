// Package feed provides the live AIS feed integration the paper plans
// for its deployment (§7: "we soon expect to be given access to live
// AIS feeds from all vessels across the Aegean Sea"), as the one
// implementation of the feed wire protocol on both ends.
//
// The wire is line-oriented: each fix is "<unix> !AIVDM…" (a
// timestamped NMEA AIVDM sentence), idle stretches carry "# HB <unix>"
// comment lines, and a client may open with "RESUME <unix>" to be
// replayed only the fixes strictly after that second.
//
// Server serves a Ring over that wire. A static replay (maritime feed, the
// self-contained cmd/serve and maritime cluster) is a ring built full and
// finished, paced by the original timestamps; the cluster router's
// vessel slices are live rings it appends to. ReconnectingClient is the
// one client: it re-dials dropped connections, resumes with the
// handshake and discards the duplicates replayed around its cursor.
package feed

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ais"
)

// DefaultHandshakeWait is how long every server in this repository
// waits for a client's optional RESUME greeting. ReconnectingClient
// greets at once, so only a client that sends nothing pays it.
const DefaultHandshakeWait = 2 * time.Second

// writeTimeout bounds every write to a client: one that stops reading
// for this long is dropped (counted in WriteErrors) and must reconnect.
// Tests shorten it.
var writeTimeout = 10 * time.Second

// ServerStats counts what the feed server did and why it dropped
// output, mirroring ais.ScannerStats on the producing side: encode and
// write failures are structured counters rather than log lines, so a
// supervisor can alarm on them.
type ServerStats struct {
	ClientsServed int // connections that ran to completion or client drop
	Resumes       int // RESUME handshakes honored
	ResumeSkipped int // fixes skipped because they were ≤ a resume cursor
	EncodeErrors  int // fixes dropped because NMEA encoding failed
	WriteErrors   int // client connections dropped on a write error or timeout
	Heartbeats    int // keepalive comment lines emitted during idle stretches
}

// Server replays a Ring to every connected client, paced by the
// original timestamps divided by Speedup (Speedup 0 or ≥ 1e6 replays
// as fast as the sockets drain). A client that catches up with a live
// ring waits for the next append; once the ring is finished and
// drained, the connection closes cleanly.
type Server struct {
	Source  *Ring
	Speedup float64
	// Logf receives connection lifecycle messages; nil silences them.
	Logf func(format string, args ...any)
	// HandshakeWait, when positive, makes the server wait this long after
	// accept for an optional "RESUME <unix>" line from the client before
	// streaming. A resuming client is replayed only the fixes with
	// timestamp strictly greater than the cursor; clients that send
	// nothing get the full stream after the wait elapses.
	HandshakeWait time.Duration
	// KeepaliveEvery, when positive, emits a "# HB <unix>" comment line
	// whenever the server would otherwise stay silent for that long,
	// pacing a replay or waiting on a live ring. The scanner on the
	// other end skips comment lines (counted as Blank), so heartbeats
	// cost nothing semantically but let a client with a read timeout
	// distinguish an idle stream from a dead peer.
	KeepaliveEvery time.Duration

	mu    sync.Mutex
	stats ServerStats
}

// Serve streams to each client accepted on ln until ctx is cancelled,
// which closes ln.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil // clean shutdown
			}
			return fmt.Errorf("feed: accept: %w", err)
		}
		s.logf("client %s connected", conn.RemoteAddr())
		go s.stream(ctx, conn)
	}
}

// ListenAndServe binds addr ("host:port", port 0 picks a free one) and
// serves until ctx is cancelled. The bound address is reported through
// addrCh (buffered, length 1) before the first Accept.
func (s *Server) ListenAndServe(ctx context.Context, addr string, addrCh chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("feed: listen: %w", err)
	}
	if addrCh != nil {
		addrCh <- ln.Addr()
	}
	return s.Serve(ctx, ln)
}

// ClientsServed returns how many client connections completed.
func (s *Server) ClientsServed() int { return s.Stats().ClientsServed }

// Stats returns a snapshot of the server's drop and resume counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Server) count(fn func(*ServerStats)) {
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// encodeSentences is swapped out by tests to exercise the encode-error
// accounting.
var encodeSentences = ais.EncodeSentences

// deadlineWriter arms the write deadline before every write to conn.
type deadlineWriter struct{ conn net.Conn }

func (d deadlineWriter) Write(p []byte) (int, error) {
	if err := d.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return 0, err
	}
	return d.conn.Write(p)
}

// stream serves one client: handshake, replay from the resume position,
// then follow the ring until it is finished and drained.
func (s *Server) stream(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	defer s.count(func(st *ServerStats) { st.ClientsServed++ })
	pos, skipped := s.Source.resumePos(s.handshake(conn))
	if skipped > 0 {
		s.count(func(st *ServerStats) { st.ResumeSkipped += skipped })
	}
	w := bufio.NewWriter(deadlineWriter{conn})
	paced := s.Speedup > 0 && s.Speedup < 1e6
	var streamStart, wallStart time.Time
	for {
		fixes, first, done, notify := s.Source.window(pos)
		for j, f := range fixes {
			if ctx.Err() != nil {
				return
			}
			if paced {
				if wallStart.IsZero() {
					streamStart, wallStart = f.Time, time.Now()
				} else {
					due := wallStart.Add(time.Duration(float64(f.Time.Sub(streamStart)) / s.Speedup))
					if time.Until(due) > 0 && !s.wait(ctx, w, conn, due, nil) {
						return
					}
				}
			}
			lines, err := encodeSentences(&ais.PositionReport{
				Type: ais.TypePositionA, MMSI: f.MMSI,
				Lon: f.Pos.Lon, Lat: f.Pos.Lat,
				UTCSecond: f.Time.Second(),
			}, "A", first+j)
			if err != nil {
				s.count(func(st *ServerStats) { st.EncodeErrors++ })
				s.logf("encode: %v", err)
				continue
			}
			for _, line := range lines {
				w.WriteString(strconv.FormatInt(f.Time.Unix(), 10))
				w.WriteByte(' ')
				w.WriteString(line)
				// The writer's error is sticky, so this reports any
				// failed write of the fix.
				if err := w.WriteByte('\n'); err != nil {
					s.drop(conn, err)
					return
				}
			}
		}
		pos = first + len(fixes)
		if done {
			if s.flush(w, conn) {
				s.logf("client %s finished (%d fixes)", conn.RemoteAddr(), pos)
			}
			return
		}
		if len(fixes) == 0 && !s.wait(ctx, w, conn, time.Time{}, notify) {
			return
		}
	}
}

// wait flushes what is buffered, then blocks until due (zero: no
// deadline) or until notify fires, writing a heartbeat after every
// KeepaliveEvery of silence. It reports whether to keep streaming.
func (s *Server) wait(ctx context.Context, w *bufio.Writer, conn net.Conn, due time.Time, notify <-chan struct{}) bool {
	if !s.flush(w, conn) {
		return false
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		d := time.Until(due)
		if !due.IsZero() && d <= 0 {
			return true
		}
		heartbeat := s.KeepaliveEvery > 0 && (due.IsZero() || d > s.KeepaliveEvery)
		if heartbeat {
			d = s.KeepaliveEvery
		}
		var tick <-chan time.Time
		if heartbeat || !due.IsZero() {
			// The previous tick, if any, was received: Reset is safe.
			if timer == nil {
				timer = time.NewTimer(d)
			} else {
				timer.Reset(d)
			}
			tick = timer.C
		}
		select {
		case <-ctx.Done():
			return false
		case <-notify:
			return true
		case <-tick:
		}
		if heartbeat {
			// Still waiting: reassure the client we are alive.
			fmt.Fprintf(w, "# HB %d\n", time.Now().Unix())
			if !s.flush(w, conn) {
				return false
			}
			s.count(func(st *ServerStats) { st.Heartbeats++ })
		}
	}
}

// flush writes out the buffered lines, dropping the client on failure.
func (s *Server) flush(w *bufio.Writer, conn net.Conn) bool {
	if err := w.Flush(); err != nil {
		s.drop(conn, err)
		return false
	}
	return true
}

// drop counts a failed write and arms a reset for the close: a client
// that stopped reading must see a fault to reconnect and resume from,
// not the clean close that means the feed is finished.
func (s *Server) drop(conn net.Conn, err error) {
	s.count(func(st *ServerStats) { st.WriteErrors++ })
	s.logf("client %s dropped: %v", conn.RemoteAddr(), err)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
}

// handshake waits up to HandshakeWait for an optional "RESUME <unix>"
// line and returns the parsed cursor, or nil when the client wants the
// stream from the beginning.
func (s *Server) handshake(conn net.Conn) *int64 {
	if s.HandshakeWait <= 0 {
		return nil
	}
	conn.SetReadDeadline(time.Now().Add(s.HandshakeWait))
	defer conn.SetReadDeadline(time.Time{})
	// The handshake is at most one short line; read byte-wise so no
	// stream data is buffered away from the writer below.
	line := make([]byte, 0, 32)
	buf := make([]byte, 1)
	for len(line) < 64 {
		if _, err := conn.Read(buf); err != nil {
			return nil // silence or a deadline: full replay
		}
		if buf[0] == '\n' {
			break
		}
		line = append(line, buf[0])
	}
	fields := strings.Fields(string(line))
	if len(fields) != 2 || fields[0] != "RESUME" {
		return nil
	}
	cursor, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || cursor < 0 {
		return nil // a fresh session's greeting: full replay
	}
	s.count(func(st *ServerStats) { st.Resumes++ })
	s.logf("client %s resumes after %d", conn.RemoteAddr(), cursor)
	return &cursor
}
