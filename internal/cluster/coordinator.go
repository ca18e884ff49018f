package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/feed"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tracker"
)

// CoordinatorConfig assembles the merge tier.
type CoordinatorConfig struct {
	// Workers is the cluster width; a Hello with a different width is
	// rejected.
	Workers int
	// System configures the coordinator's pipeline, the same core.System
	// a single process runs, fed the merged slides: its window's slide is
	// the cluster's slide step (must match the workers'), and its
	// recognition, watchdog and analytics settings apply
	// to the merged stream. Archival is forced off — the workers archive
	// their slices — and its tracker never runs: the merged critical
	// points arrive already detected.
	System core.Config
	// Static world knowledge, identical across the cluster: Vessels and
	// Areas feed recognition, Ports the analytics tier's in-harbor
	// rendezvous suppression.
	Vessels []maritime.Vessel
	Areas   []maritime.Area
	Ports   []mod.PortArea
	// QueueCap bounds each worker's pending slide queue (default 64).
	// When the queue of any worker exceeds it — one peer stalled while
	// the rest stream on — the oldest pending slide is force-merged
	// without the laggard's contribution: the stalled worker degrades
	// only its own slice, never the whole merge.
	QueueCap int
	// Hub, when set, receives every merged slide's alerts.
	Hub *serve.Hub
	// Manifests, when set, records a cluster manifest every time a
	// checkpoint query time has been fully reported and merged.
	Manifests *ManifestStore
	// Restore seeds the coordinator from a cluster manifest: the system
	// snapshot, hub state, and the merge frontier. The workers must be
	// restored to the same generation (Worker.PinSeq).
	Restore *Manifest
	// Logf receives lifecycle messages; nil silences them.
	Logf func(format string, args ...any)
}

// ClusterFinal sums the cluster's end-of-run digest.
type ClusterFinal struct {
	Final  WorkerFinal
	Slides int
	Alerts int
}

// CoordinatorStats counts the merge tier's work.
type CoordinatorStats struct {
	SlidesMerged int
	ForcedMerges int
	// DropsByCause ledgers every discarded worker slide: "duplicate"
	// (re-sent below the merge frontier after a worker restart — the
	// exactly-once path working as designed), "late-after-forced-merge"
	// (a stalled worker's output arriving after its slide was forced
	// through without it).
	DropsByCause map[string]int
	Alerts       int
	Manifests    int
}

// workerState is the coordinator's bookkeeping for one slice.
type workerState struct {
	connected bool
	everSeen  bool
	eos       bool
	restarts  int
	final     WorkerFinal
	health    core.Health
	// pending holds received-but-unmerged slides keyed by query time; a
	// worker restart may re-send a queued slide, which overwrites with
	// identical content.
	pending map[time.Time]*SlideOutput
	// maxKnown is the newest query time ever received from this worker
	// — monotone across reconnects, the merge barrier's evidence that
	// the worker has nothing older left to send.
	maxKnown time.Time
	// forcedSkips counts merges that went through without this worker's
	// contribution.
	forcedSkips int
}

// Coordinator accepts worker uplinks, k-way-merges their slide outputs
// deterministically under the (time, MMSI) contract, feeds each merged
// slide to its core.System (CE recognition and the analytics tier),
// publishes alerts, and binds worker checkpoints into cluster
// manifests. One lock serializes merge + recognition + publication, so
// the alert stream is totally ordered no matter which connection's
// message completed a barrier; the system's own run lock is taken
// inside it.
type Coordinator struct {
	cfg CoordinatorConfig
	sys *core.System

	mu         sync.Mutex
	workers    []*workerState
	lastMerged time.Time // merge frontier: newest merged query (zero before any)
	slides     int
	stats      CoordinatorStats
	sinks      []core.AlertSink
	finalized  bool
	done       chan struct{}

	metrics *coordinatorMetrics
}

// NewCoordinator builds the merge tier, seeding it from cfg.Restore
// when a manifest generation is being resumed.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.System.Window.Slide <= 0 {
		return nil, errors.New("cluster: coordinator needs a positive slide")
	}
	sysCfg := cfg.System
	sysCfg.DisableArchival = true
	c := &Coordinator{
		cfg:  cfg,
		sys:  core.NewSystem(sysCfg, cfg.Vessels, cfg.Areas, cfg.Ports),
		done: make(chan struct{}),
	}
	c.stats.DropsByCause = make(map[string]int)
	for i := 0; i < cfg.Workers; i++ {
		c.workers = append(c.workers, &workerState{pending: make(map[time.Time]*SlideOutput)})
	}
	if cfg.Restore != nil {
		if cfg.Restore.Workers != cfg.Workers {
			return nil, fmt.Errorf("cluster: manifest for %d workers, coordinator has %d",
				cfg.Restore.Workers, cfg.Workers)
		}
		if err := c.sys.RestoreSnapshot(cfg.Restore.System); err != nil {
			return nil, fmt.Errorf("cluster: restoring the coordinator: %w", err)
		}
		c.lastMerged = cfg.Restore.Query
		c.slides = cfg.Restore.Slides
		if cfg.Hub != nil && cfg.Restore.Hub != nil {
			cfg.Hub.Restore(*cfg.Restore.Hub)
		}
		c.logf("coordinator: restored manifest at %s (%d slides)",
			cfg.Restore.Query.Format(time.RFC3339), cfg.Restore.Slides)
	}
	return c, nil
}

// AddAlertSink registers a consumer of every merged slide report.
// Sinks run under the coordinator's merge lock — in merge order — and
// must not call back into the coordinator.
func (c *Coordinator) AddAlertSink(s core.AlertSink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sinks = append(c.sinks, s)
}

// Done is closed when every worker has delivered EOS and all pending
// slides are merged.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Final returns the cluster's end-of-run digest; valid after Done.
func (c *Coordinator) Final() ClusterFinal {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ClusterFinal{Slides: c.slides, Alerts: c.stats.Alerts}
	for _, ws := range c.workers {
		out.Final = out.Final.Add(ws.final)
	}
	return out
}

// Stats snapshots the merge accounting.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.DropsByCause = make(map[string]int, len(c.stats.DropsByCause))
	for k, v := range c.stats.DropsByCause {
		out.DropsByCause[k] = v
	}
	return out
}

// Health folds the workers' reported health into the coordinator
// system's: a worker that is unreachable (never connected, or dropped
// before its EOS) or stalled behind a forced merge counts as
// quarantined, which degrades the cluster's /healthz state.
func (c *Coordinator) Health() core.Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.healthLocked()
}

func (c *Coordinator) healthLocked() core.Health {
	h := c.sys.Health()
	for _, ws := range c.workers {
		h = h.Merge(ws.health)
		if ws.eos {
			continue
		}
		if !ws.connected || ws.maxKnown.Before(c.lastMerged) && ws.forcedSkips > 0 {
			h.Quarantined++
		}
	}
	h.Restores += c.restartsLocked()
	return h
}

func (c *Coordinator) restartsLocked() int {
	n := 0
	for _, ws := range c.workers {
		n += ws.restarts
	}
	return n
}

// Serve accepts worker uplink connections until ctx is cancelled.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("cluster: coordinator accept: %w", err)
		}
		go c.handle(conn)
	}
}

// ListenAndServe binds addr (port 0 picks a free one), serves in the
// background, and returns the bound address.
func (c *Coordinator) ListenAndServe(ctx context.Context, addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen %s: %w", addr, err)
	}
	go c.Serve(ctx, ln)
	return ln.Addr(), nil
}

// handle drives one worker connection: Hello, then slides until EOS or
// disconnect.
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	r := newWireReader(conn)
	m, err := r.next()
	if err != nil || m.Kind != KindHello || m.Hello == nil {
		c.logf("coordinator: %s: bad greeting (err=%v)", conn.RemoteAddr(), err)
		return
	}
	h := m.Hello
	if h.Workers != c.cfg.Workers || h.Worker < 0 || h.Worker >= c.cfg.Workers {
		c.logf("coordinator: %s: worker %d/%d does not fit a %d-wide cluster — rejected",
			conn.RemoteAddr(), h.Worker, h.Workers, c.cfg.Workers)
		return
	}
	c.mu.Lock()
	ws := c.workers[h.Worker]
	ws.connected = true
	if h.Restarted || ws.everSeen {
		ws.restarts++
	}
	ws.everSeen = true
	c.mu.Unlock()
	c.logf("coordinator: worker %d connected from %s (restarted=%v, %d slides)",
		h.Worker, conn.RemoteAddr(), h.Restarted, h.Slides)

	for {
		m, err := r.next()
		if err != nil {
			c.mu.Lock()
			ws.connected = false
			eos := ws.eos
			c.mu.Unlock()
			if !eos && !errors.Is(err, io.EOF) {
				c.logf("coordinator: worker %d dropped: %v", h.Worker, err)
			}
			return
		}
		switch m.Kind {
		case KindSlide:
			if m.Slide != nil && m.Slide.Worker == h.Worker {
				c.ingest(m.Slide)
			}
		case KindEOS:
			if m.EOS != nil && m.EOS.Worker == h.Worker {
				c.mu.Lock()
				ws.eos = true
				ws.final = m.EOS.Final
				c.mergeLocked()
				c.mu.Unlock()
				c.logf("coordinator: worker %d finished", h.Worker)
			}
		}
	}
}

// ingest queues one worker slide and merges whatever the barrier now
// allows.
func (c *Coordinator) ingest(s *SlideOutput) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[s.Worker]
	ws.health = s.Health
	if ws.maxKnown.Before(s.Query) {
		ws.maxKnown = s.Query
	}
	if !s.Query.After(c.lastMerged) {
		// Below the merge frontier: a worker restart re-sending slides
		// the cluster already merged (exactly-once dedupe), or a stalled
		// worker's output arriving after its slide was forced through.
		cause := "duplicate"
		if ws.forcedSkips > 0 {
			cause = "late-after-forced-merge"
			ws.forcedSkips--
		}
		c.stats.DropsByCause[cause]++
		return
	}
	ws.pending[s.Query] = s
	c.mergeLocked()
}

// mergeLocked merges every pending slide the barrier allows, oldest
// first. A slide query Q is ready when every worker has either
// finished (eos) or reported a slide at or past Q — workers emit every
// grid slide, including empty ones, so maxKnown ≥ Q proves Q arrived.
// When a queue overflows QueueCap the oldest slide is forced through
// without the laggard.
func (c *Coordinator) mergeLocked() {
	for {
		q, ok := c.oldestPendingLocked()
		if !ok {
			break
		}
		ready := true
		for _, ws := range c.workers {
			if ws.eos || !ws.maxKnown.Before(q) {
				continue
			}
			ready = false
			break
		}
		forced := false
		if !ready {
			if c.maxDepthLocked() <= c.cfg.QueueCap {
				break
			}
			forced = true
		}
		c.mergeOneLocked(q, forced)
	}
	c.maybeFinishLocked()
}

func (c *Coordinator) oldestPendingLocked() (time.Time, bool) {
	var q time.Time
	found := false
	for _, ws := range c.workers {
		for t := range ws.pending {
			if !found || t.Before(q) {
				q = t
				found = true
			}
		}
	}
	return q, found
}

func (c *Coordinator) maxDepthLocked() int {
	depth := 0
	for _, ws := range c.workers {
		if len(ws.pending) > depth {
			depth = len(ws.pending)
		}
	}
	return depth
}

// mergeOneLocked merges the slide at query q: concatenate the workers'
// fresh critical points in worker order, stable-sort by (time, MMSI) —
// per-vessel order is preserved and vessels live in exactly one slice,
// so the merged stream is identical for every worker count — then feed
// it to the system as the slide's tracker output, publish, and bind a
// manifest when this query is a fully reported checkpoint cut.
func (c *Coordinator) mergeOneLocked(q time.Time, forced bool) {
	start := time.Now()
	var fresh []tracker.CriticalPoint
	var fixesIn, trips int
	var timings core.Timings // the slowest worker's, stage by stage
	ckptSeqs := make([]uint64, c.cfg.Workers)
	ckptCurs := make([]*feed.Cursor, c.cfg.Workers)
	ckptFull := true
	for i, ws := range c.workers {
		s, ok := ws.pending[q]
		if !ok {
			if !ws.eos {
				ws.forcedSkips++
			}
			ckptFull = false
			continue
		}
		delete(ws.pending, q)
		fixesIn += s.FixesIn
		trips += s.TripsCompleted
		fresh = append(fresh, s.Fresh...)
		maxTimings(&timings, s.Timings)
		if s.CkptSeq == 0 {
			ckptFull = false
		} else {
			ckptSeqs[i] = s.CkptSeq
			ckptCurs[i] = s.CkptCursor
		}
	}
	tracker.SortCriticalPoints(fresh)

	rep := c.sys.ProcessSlide(tracker.SlideResult{Query: q, Fresh: fresh})
	rep.FixesIn, rep.TripsCompleted = fixesIn, trips
	// The slide cost the cluster its slowest worker's slide plus this
	// merge.
	timings.Recognition, timings.Analytics = rep.Timings.Recognition, rep.Timings.Analytics
	timings.Wall += time.Since(start)
	rep.Timings = timings

	c.lastMerged = q
	c.slides++
	c.stats.SlidesMerged++
	c.stats.Alerts += len(rep.Alerts)
	if forced {
		c.stats.ForcedMerges++
		c.logf("coordinator: slide %s forced through without a stalled worker", q.Format(time.RFC3339))
	}
	if c.cfg.Hub != nil {
		c.cfg.Hub.Publish(q, rep.Alerts)
	}
	if c.metrics != nil {
		c.metrics.observe(rep)
	}
	rep.Health = c.healthLocked()
	for _, s := range c.sinks {
		s.Consume(rep)
	}

	if c.cfg.Manifests != nil && ckptFull {
		c.writeManifestLocked(q, ckptSeqs, ckptCurs)
	}
}

// writeManifestLocked binds the fully reported checkpoint cut at q.
func (c *Coordinator) writeManifestLocked(q time.Time, seqs []uint64, curs []*feed.Cursor) {
	snap, err := c.sys.Snapshot()
	if err != nil {
		// A recognizer out of service (core.ErrWedged): the previous
		// generation stands until the system is whole again.
		c.logf("coordinator: manifest at %s skipped: %v", q.Format(time.RFC3339), err)
		return
	}
	m := &Manifest{
		Query:      q,
		Workers:    c.cfg.Workers,
		WorkerSeqs: seqs,
		Cursor:     mergeCursors(curs),
		System:     snap,
		Slides:     c.slides,
	}
	if c.cfg.Hub != nil {
		hub := c.cfg.Hub.Snapshot()
		m.Hub = &hub
	}
	if err := c.cfg.Manifests.Save(m); err != nil {
		// The previous manifest generation survives; the cluster just
		// restores a little further back.
		c.logf("coordinator: manifest at %s failed: %v", q.Format(time.RFC3339), err)
		return
	}
	c.stats.Manifests++
}

// maybeFinishLocked closes Done once every worker reached EOS with
// nothing pending.
func (c *Coordinator) maybeFinishLocked() {
	if c.finalized {
		return
	}
	for _, ws := range c.workers {
		if !ws.eos || len(ws.pending) > 0 {
			return
		}
	}
	c.finalized = true
	close(c.done)
}

// maxTimings keeps the slowest worker's tracking and archival times
// (workers run no recognition or analytics).
func maxTimings(dst *core.Timings, src core.Timings) {
	dst.Tracking = max(dst.Tracking, src.Tracking)
	dst.Staging = max(dst.Staging, src.Staging)
	dst.Reconstruction = max(dst.Reconstruction, src.Reconstruction)
	dst.Loading = max(dst.Loading, src.Loading)
	dst.Wall = max(dst.Wall, src.Wall)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// coordinatorMetrics is the cluster observability wiring.
type coordinatorMetrics struct {
	alerts *obs.Counter
	merged *obs.Counter
}

func (m *coordinatorMetrics) observe(rep core.SlideReport) {
	m.merged.Inc()
	m.alerts.Add(uint64(len(rep.Alerts)))
}

// RegisterMetrics exposes the cluster's merge-tier series: per-worker
// slide lag and queue depth, forced merges and the drop ledger, worker
// restarts, manifest age, and merge throughput.
func (c *Coordinator) RegisterMetrics(r *obs.Registry) {
	c.mu.Lock()
	c.metrics = &coordinatorMetrics{
		merged: r.Counter("maritime_cluster_slides_merged_total",
			"Cluster slides merged across all workers.", nil),
		alerts: r.Counter("maritime_cluster_alerts_total",
			"Alerts recognized over the merged event stream.", nil),
	}
	c.mu.Unlock()
	r.GaugeFunc("maritime_cluster_workers", "Configured cluster width.", nil,
		func() float64 { return float64(c.cfg.Workers) })
	r.CounterFunc("maritime_cluster_forced_merges_total",
		"Slides force-merged past QueueCap without a stalled worker's contribution.", nil,
		func() float64 { return float64(c.Stats().ForcedMerges) })
	r.CounterFunc("maritime_cluster_manifests_total",
		"Cluster manifests written (fully reported checkpoint cuts).", nil,
		func() float64 { return float64(c.Stats().Manifests) })
	for _, cause := range []string{"duplicate", "late-after-forced-merge"} {
		cause := cause
		r.CounterFunc("maritime_cluster_dropped_slides_total",
			"Worker slide outputs discarded, by cause.",
			obs.Labels{"cause": cause},
			func() float64 { return float64(c.Stats().DropsByCause[cause]) })
	}
	r.CounterFunc("maritime_cluster_worker_restarts_total",
		"Worker reconnects after a restart or connection loss.", nil,
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.restartsLocked())
		})
	if c.cfg.Manifests != nil {
		r.GaugeFunc("maritime_cluster_manifest_age_seconds",
			"Age of the newest cluster manifest; rises between checkpoint cuts.", nil,
			func() float64 {
				last := c.cfg.Manifests.LastSave()
				if last.IsZero() {
					return 0
				}
				return time.Since(last).Seconds()
			})
		for _, s := range []struct {
			name, help string
			get        func(durable.StoreStats) uint64
		}{
			{"maritime_cluster_manifest_retries_total",
				"Manifest write attempts retried after a transient failure (ENOSPC, EIO).",
				func(s durable.StoreStats) uint64 { return s.Retries }},
			{"maritime_cluster_manifest_failures_total",
				"Manifest saves that failed after exhausting their retries (the previous generation survives).",
				func(s durable.StoreStats) uint64 { return s.Failures }},
			{"maritime_cluster_manifest_rejected_total",
				"Manifest generations skipped at restore (unreadable file, width mismatch, or a worker checkpoint that does not load).",
				func(s durable.StoreStats) uint64 { return s.Rejected }},
		} {
			r.CounterFunc(s.name, s.help, nil, func() float64 { return float64(s.get(c.cfg.Manifests.Stats())) })
		}
	}
	for i := range c.workers {
		i := i
		labels := obs.Labels{"worker": fmt.Sprintf("%d", i)}
		r.GaugeFunc("maritime_cluster_worker_connected",
			"1 while the worker's uplink is established.", labels,
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				if c.workers[i].connected {
					return 1
				}
				return 0
			})
		r.GaugeFunc("maritime_cluster_worker_slide_lag",
			"Slides between the cluster's newest reported query and this worker's.", labels,
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				var newest time.Time
				for _, ws := range c.workers {
					if ws.maxKnown.After(newest) {
						newest = ws.maxKnown
					}
				}
				ws := c.workers[i]
				if ws.eos || newest.IsZero() || ws.maxKnown.IsZero() {
					return 0
				}
				return float64(newest.Sub(ws.maxKnown) / c.cfg.System.Window.Slide)
			})
		r.GaugeFunc("maritime_cluster_merge_queue_depth",
			"Received-but-unmerged slides queued for this worker.", labels,
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return float64(len(c.workers[i].pending))
			})
	}
}
