package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// WorkerConfig assembles one worker process: which vessel slice it
// owns, where its slice feed and the coordinator live, and the pipeline
// configuration it runs for the slice.
type WorkerConfig struct {
	// ID is the slice index in [0, Workers); Workers is the cluster
	// width. Both must match the router's partitioning or the
	// coordinator rejects the Hello.
	ID      int
	Workers int
	// Router is the worker's slice feed address (the router's listener
	// for slice ID); Coordinator is the uplink address.
	Router      string
	Coordinator string
	// System configures the worker pipeline. Recognition is forced off:
	// several maritime CEs aggregate across vessels, so recognition runs
	// at the coordinator over the merged event stream.
	System core.Config
	// Static world knowledge, identical across the cluster.
	Vessels []maritime.Vessel
	Areas   []maritime.Area
	Ports   []mod.PortArea
	// GridStart pins the slide grid's origin (a time on the original
	// stream's grid, at or before the first fix) so every worker batches
	// on the same grid regardless of when its slice's first fix falls.
	// Zero falls back to first-fix alignment — only safe in a
	// single-worker cluster.
	GridStart time.Time
	// CheckpointDir enables checkpointing; CheckpointEvery is the
	// cadence in slides, taken grid-absolutely ((Q/slide) mod K == 0) so
	// every worker checkpoints at the same query times — the coordinator
	// can only bind a manifest at a query time all workers covered.
	CheckpointDir   string
	CheckpointEvery int
	// PinSeq, when nonzero, restores exactly that checkpoint sequence
	// instead of the newest — how a manifest-driven cluster restore puts
	// every worker on the same generation.
	PinSeq uint64
	// Retry is the slice-feed reconnect policy (zero: defaults).
	// DeadPeerAfter bounds reads from the router; pair it with the
	// router's keepalive so only a hung router trips it.
	Retry         feed.RetryPolicy
	DeadPeerAfter time.Duration
	// DialTimeout bounds the coordinator dial.
	DialTimeout time.Duration
	// Logf receives lifecycle messages; nil silences them.
	Logf func(format string, args ...any)
}

// Worker is one vessel slice's pipeline process: it consumes the slice
// feed through the reconnecting client (RESUME semantics across both
// router and worker restarts), runs tracking and archival, checkpoints
// autonomously, and ships every slide's output to the coordinator.
type Worker struct {
	cfg  WorkerConfig
	sys  *core.System
	mgr  *checkpoint.Manager
	base *checkpoint.State // restored checkpoint, nil on cold start

	fresh  []tracker.CriticalPoint // current slide's copied critical points
	cursor feed.Cursor
	slides int

	// Steady-state scratch: the uplink frames re-filled every slide so
	// the per-slide encode allocates nothing on the worker side.
	out SlideOutput
	msg Message
}

// NewWorker builds the worker and, when a checkpoint directory is
// configured, restores its state: the pinned sequence when PinSeq is
// set, otherwise the newest valid checkpoint (cold start when none).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Workers {
		return nil, fmt.Errorf("cluster: worker ID %d outside [0,%d)", cfg.ID, cfg.Workers)
	}
	sysCfg := cfg.System
	sysCfg.DisableRecognition = true
	w := &Worker{cfg: cfg, sys: core.NewSystem(sysCfg, cfg.Vessels, cfg.Areas, cfg.Ports)}
	w.sys.SetFreshObserver(func(q time.Time, fresh []tracker.CriticalPoint) {
		// The slice is tracker-owned scratch; copy before the call ends.
		w.fresh = append(w.fresh[:0], fresh...)
	})

	if cfg.CheckpointDir != "" {
		mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: cfg.CheckpointDir})
		if err != nil {
			return nil, err
		}
		w.mgr = mgr
		var st *checkpoint.State
		if cfg.PinSeq != 0 {
			if st, err = mgr.LoadAt(cfg.PinSeq); err != nil {
				return nil, fmt.Errorf("cluster: worker %d pinned restore: %w", cfg.ID, err)
			}
		} else if st, err = mgr.RestoreNewest(); err != nil && st == nil {
			w.logf("worker %d: no restorable checkpoint: %v", cfg.ID, err)
		}
		if st != nil {
			if err := w.sys.RestoreSnapshot(st.System); err != nil {
				return nil, fmt.Errorf("cluster: worker %d restore: %w", cfg.ID, err)
			}
			w.base = st
			w.cursor = st.Cursor.Clone()
			w.slides = st.Slides
			w.logf("worker %d: restored checkpoint at %s (%d slides)",
				cfg.ID, st.Query.Format(time.RFC3339), st.Slides)
		}
	}
	return w, nil
}

// System exposes the worker's pipeline (tests inspect its stores).
func (w *Worker) System() *core.System { return w.sys }

// Checkpoints exposes the worker's checkpoint manager (nil when
// checkpointing is off).
func (w *Worker) Checkpoints() *checkpoint.Manager { return w.mgr }

// Run consumes the slice feed to its end, shipping every slide upstream,
// and closes with Drain + EOS. A cancelled ctx stops the worker without
// an EOS — exactly what a killed worker looks like to the coordinator.
func (w *Worker) Run(ctx context.Context) error {
	defer w.sys.Close()
	conn, uplink, err := dialCoordinator(w.cfg.Coordinator, w.cfg.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()

	hello := &Hello{Worker: w.cfg.ID, Workers: w.cfg.Workers, Slides: w.slides, Restarted: w.base != nil}
	if w.base != nil {
		hello.Query = w.base.Query
	}
	if err := uplink.send(&Message{Kind: KindHello, Hello: hello}); err != nil {
		return err
	}

	retry := w.cfg.Retry
	if retry.MaxAttempts == 0 {
		retry = feed.DefaultRetryPolicy()
	}
	client := feed.NewReconnecting(func() (net.Conn, error) {
		return net.DialTimeout("tcp", w.cfg.Router, retry.DialTimeout)
	}, retry)
	client.DeadPeerTimeout = w.cfg.DeadPeerAfter
	client.Logf = w.cfg.Logf
	if w.base != nil {
		client.SeedCursor(w.cursor)
	}

	var batcher *stream.Batcher
	switch {
	case w.base != nil:
		// Continue on the restored grid; slides between the checkpoint
		// and the first replayed fix still run (empty).
		batcher = stream.NewBatcherFrom(client, w.cfg.System.Window.Slide, w.base.Query)
	case !w.cfg.GridStart.IsZero():
		// The shared grid origin: a slice whose first fix comes late (or
		// exactly on a grid point) still batches on the cluster's grid.
		batcher = stream.NewBatcherFrom(client, w.cfg.System.Window.Slide, w.cfg.GridStart)
	default:
		batcher = stream.NewBatcher(client, w.cfg.System.Window.Slide)
	}
	// The lossless ingest stage decodes slide k+1 while slide k is
	// processed. Its goroutine may be inside client.Scan: close the
	// client first, then wait for it.
	stage := stream.NewIngestStage(batcher, 0)
	defer func() {
		client.Close()
		stage.Close()
	}()
	w.sys.AddHealthSource(core.LiveHealthSource(client, stage))
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			client.Close()
		case <-stop:
		}
	}()

	slideSec := int64(w.cfg.System.Window.Slide / time.Second)
	var lastQ time.Time
	for {
		b, ok := stage.Next()
		if !ok {
			break
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		for _, f := range b.Fixes {
			w.cursor.Note(f)
		}
		w.fresh = w.fresh[:0]
		rep := w.sys.ProcessBatch(b)
		w.slides++
		lastQ = b.Query

		w.out = SlideOutput{
			Worker:         w.cfg.ID,
			Query:          b.Query,
			FixesIn:        rep.FixesIn,
			TripsCompleted: rep.TripsCompleted,
			Fresh:          w.fresh,
			Timings:        rep.Timings,
			Health:         rep.Health,
		}
		if w.mgr != nil && w.cfg.CheckpointEvery > 0 && slideSec > 0 &&
			(b.Query.Unix()/slideSec)%int64(w.cfg.CheckpointEvery) == 0 {
			if err := w.saveCheckpoint(b.Query); err != nil {
				// The previous checkpoint survives; keep streaming.
				w.logf("worker %d: checkpoint at %s failed: %v", w.cfg.ID, b.Query.Format(time.RFC3339), err)
			} else {
				w.out.CkptSeq = w.mgr.LastSeq()
				cur := w.cursor.Clone()
				w.out.CkptCursor = &cur
			}
		}
		w.msg = Message{Kind: KindSlide, Slide: &w.out}
		if err := uplink.send(&w.msg); err != nil {
			return err
		}
		stage.Recycle(b)
	}
	if err := stage.Err(); err != nil {
		return fmt.Errorf("cluster: worker %d slice feed: %w", w.cfg.ID, err)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if !lastQ.IsZero() {
		w.sys.Drain(lastQ)
	}
	t4 := w.sys.Store().Table4Stats()
	tr := w.sys.Tracker().Stats()
	final := WorkerFinal{
		Trips:        t4.Trips,
		TrajPoints:   t4.PointsInTrajectories,
		Staged:       t4.PointsInStaging,
		FixesIn:      tr.FixesIn,
		Critical:     tr.Critical,
		LateAccepted: tr.LateAccepted,
		LateDropped:  tr.LateDropped,
	}
	return uplink.send(&Message{Kind: KindEOS, EOS: &EOS{Worker: w.cfg.ID, Final: final}})
}

// saveCheckpoint persists the worker's state as of query time q.
func (w *Worker) saveCheckpoint(q time.Time) error {
	snap, err := w.sys.Snapshot()
	if err != nil {
		return err
	}
	return w.mgr.Save(&checkpoint.State{
		Query:  q,
		System: snap,
		Cursor: w.cursor.Clone(),
		Slides: w.slides,
	})
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}
