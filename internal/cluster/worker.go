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
	cfg WorkerConfig
	sys *core.System
	run *checkpoint.Run

	fresh []tracker.CriticalPoint // current slide's copied critical points

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

	runCfg := checkpoint.RunConfig{
		System:    w.sys,
		Every:     cfg.CheckpointEvery,
		Slide:     cfg.System.Window.Slide,
		GridStart: cfg.GridStart,
		Logf:      w.logf,
	}
	if cfg.CheckpointDir != "" {
		mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: cfg.CheckpointDir})
		if err != nil {
			return nil, err
		}
		runCfg.Checkpoints = mgr
		runCfg.PinSeq = cfg.PinSeq
	}
	run, err := checkpoint.Restore(runCfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %d: %w", cfg.ID, err)
	}
	w.run = run
	return w, nil
}

// System exposes the worker's pipeline (tests inspect its stores).
func (w *Worker) System() *core.System { return w.sys }

// Run consumes the slice feed to its end, shipping every slide upstream,
// and closes with Drain + EOS. A cancelled ctx stops the worker without
// an EOS or a final checkpoint — exactly what a killed worker looks
// like to the coordinator.
func (w *Worker) Run(ctx context.Context) error {
	defer w.sys.Close()
	conn, uplink, err := dialCoordinator(w.cfg.Coordinator, w.cfg.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()

	base := w.run.Restored()
	hello := &Hello{Worker: w.cfg.ID, Workers: w.cfg.Workers, Restarted: base != nil}
	if base != nil {
		hello.Query, hello.Slides = base.Query, base.Slides
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
	client.SeedCursor(w.run.Cursor())
	// The lossless ingest stage decodes slide k+1 while slide k is
	// processed, on the cluster's shared grid (GridStart) or the
	// restored checkpoint's.
	w.run.Ingest(client, client, 0)

	res, err := w.run.Slides(ctx, checkpoint.Loop{
		Report: func(b stream.Batch, rep core.SlideReport) error {
			w.out = SlideOutput{
				Worker:         w.cfg.ID,
				Query:          b.Query,
				FixesIn:        rep.FixesIn,
				TripsCompleted: rep.TripsCompleted,
				Fresh:          w.fresh,
				Timings:        rep.Timings,
				Health:         rep.Health,
			}
			return nil
		},
		Committed: func(b stream.Batch, seq uint64) error {
			if seq != 0 {
				w.out.CkptSeq = seq
				cur := w.run.Cursor()
				w.out.CkptCursor = &cur
			}
			w.msg = Message{Kind: KindSlide, Slide: &w.out}
			return uplink.send(&w.msg)
		},
		NoFinalCheckpoint: true,
	})
	if err != nil && !res.Interrupted {
		return fmt.Errorf("cluster: worker %d: %w", w.cfg.ID, err)
	}
	if res.Interrupted {
		return ctx.Err()
	}
	if !res.Last.IsZero() {
		w.sys.Drain(res.Last)
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

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf("worker %d: "+format, append([]any{w.cfg.ID}, args...)...)
	}
}
