package cluster

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/ais"
	"repro/internal/feed"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// RouterOptions configures the partitioning tier.
type RouterOptions struct {
	// Workers is the number of vessel slices (≥ 1).
	Workers int
	// RetainFixes bounds each slice's replay ring, in fixes (default
	// 1<<16). A worker reconnecting with a cursor older than the ring's
	// horizon misses the trimmed prefix; the loss is counted, never
	// silent.
	RetainFixes int
	// KeepaliveEvery emits a "# HB <unix>" comment line on a slice
	// connection that has been idle for this long (default 2s), so a
	// worker with a dead-peer timeout can tell an idle slice from a
	// dead router.
	KeepaliveEvery time.Duration
	// Logf receives lifecycle messages; nil silences them.
	Logf func(format string, args ...any)
}

// RouterSliceStats counts one slice's serving life: what its ring took
// in and trimmed, and what its feed server did with its workers.
type RouterSliceStats struct {
	Dispatched int // fixes routed into this slice
	Trimmed    int // fixes dropped off the replay ring's horizon
	feed.ServerStats
}

// RouterStats aggregates the router's accounting.
type RouterStats struct {
	Dispatched int
	Slices     []RouterSliceStats
}

// Router partitions a fix stream into per-vessel-slice feeds. Each
// slice is a feed.Ring served by its own feed.Server, so workers read
// the same NMEA wire, RESUME handshake and keepalives as any feed
// client, through the ordinary reconnecting client with exactly-once
// resume semantics — and a fix already in wire form reaches its worker
// bit-identical.
type Router struct {
	slices []*feed.Server // slice i serves its ring, slices[i].Source

	mu     sync.Mutex
	cursor feed.Cursor // upstream cursor over every dispatched fix
}

// NewRouter builds a router with Workers slices.
func NewRouter(opt RouterOptions) *Router {
	if opt.RetainFixes <= 0 {
		opt.RetainFixes = 1 << 16
	}
	if opt.KeepaliveEvery <= 0 {
		opt.KeepaliveEvery = 2 * time.Second
	}
	r := &Router{}
	for i := 0; i < max(opt.Workers, 1); i++ {
		srv := &feed.Server{
			Source:         feed.NewRing(opt.RetainFixes),
			HandshakeWait:  feed.DefaultHandshakeWait,
			KeepaliveEvery: opt.KeepaliveEvery,
		}
		if opt.Logf != nil {
			srv.Logf = func(format string, args ...any) {
				opt.Logf("slice %d: "+format, append([]any{i}, args...)...)
			}
		}
		r.slices = append(r.slices, srv)
	}
	return r
}

// Workers returns the slice count.
func (r *Router) Workers() int { return len(r.slices) }

// ListenSlices binds one listener per slice ("host:port", port 0 picks
// a free one; an empty addrs entry defaults to 127.0.0.1:0) and starts
// serving until ctx is cancelled. It returns the bound addresses,
// indexed by slice.
func (r *Router) ListenSlices(ctx context.Context, addrs []string) ([]net.Addr, error) {
	bound := make([]net.Addr, len(r.slices))
	for i, srv := range r.slices {
		addr := "127.0.0.1:0"
		if i < len(addrs) && addrs[i] != "" {
			addr = addrs[i]
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: router slice %d listen %s: %w", i, addr, err)
		}
		bound[i] = ln.Addr()
		go func() {
			if err := srv.Serve(ctx, ln); err != nil && srv.Logf != nil {
				srv.Logf("%v", err)
			}
		}()
	}
	return bound, nil
}

// Dispatch routes one fix to its slice and advances the upstream
// cursor. Fixes must arrive in the stream's order (non-decreasing
// time), from one goroutine.
func (r *Router) Dispatch(f ais.Fix) {
	r.mu.Lock()
	r.cursor.Note(f)
	r.mu.Unlock()
	r.slices[tracker.ShardOf(f.MMSI, len(r.slices))].Source.Append(f)
}

// Finish marks the stream complete: slice connections drain their ring
// and close cleanly, so workers observe an ordinary end of feed.
func (r *Router) Finish() {
	for _, srv := range r.slices {
		srv.Source.Finish()
	}
}

// Run dispatches an entire fix source and finishes. It is the router's
// ingest loop: src is typically a feed client on the upstream AIS feed
// or an archive replay.
func (r *Router) Run(ctx context.Context, src stream.FixSource) error {
	defer r.Finish()
	for src.Scan() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.Dispatch(src.Fix())
	}
	return src.Err()
}

// Cursor returns the upstream resume cursor covering every dispatched
// fix — what the router itself would hand an upstream RESUME handshake
// after a restart.
func (r *Router) Cursor() feed.Cursor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cursor.Clone()
}

// Stats snapshots the router's accounting.
func (r *Router) Stats() RouterStats {
	out := RouterStats{Slices: make([]RouterSliceStats, len(r.slices))}
	for i := range r.slices {
		out.Slices[i] = r.sliceStats(i)
		out.Dispatched += out.Slices[i].Dispatched
	}
	return out
}

func (r *Router) sliceStats(i int) RouterSliceStats {
	srv := r.slices[i]
	rs := srv.Source.Stats()
	return RouterSliceStats{Dispatched: rs.Appended, Trimmed: rs.Trimmed, ServerStats: srv.Stats()}
}

// RegisterMetrics exposes the router's per-slice partition series:
// throughput, replay-ring trims, resumes, heartbeats, and dropped
// workers.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	for i := range r.slices {
		labels := obs.Labels{"slice": strconv.Itoa(i)}
		get := func(f func(RouterSliceStats) int) func() float64 {
			return func() float64 { return float64(f(r.sliceStats(i))) }
		}
		reg.CounterFunc("maritime_cluster_router_dispatched_total",
			"Fixes routed into this vessel slice.", labels,
			get(func(st RouterSliceStats) int { return st.Dispatched }))
		reg.CounterFunc("maritime_cluster_router_trimmed_total",
			"Fixes dropped off this slice's replay ring horizon.", labels,
			get(func(st RouterSliceStats) int { return st.Trimmed }))
		reg.CounterFunc("maritime_cluster_router_resumes_total",
			"RESUME handshakes honored on this slice.", labels,
			get(func(st RouterSliceStats) int { return st.Resumes }))
		reg.CounterFunc("maritime_cluster_router_heartbeats_total",
			"Keepalive lines emitted to idle workers on this slice.", labels,
			get(func(st RouterSliceStats) int { return st.Heartbeats }))
		reg.CounterFunc("maritime_cluster_router_dead_clients_total",
			"Worker connections dropped on a write timeout or error.", labels,
			get(func(st RouterSliceStats) int { return st.WriteErrors }))
	}
}
