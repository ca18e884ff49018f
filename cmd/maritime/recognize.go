package main

import (
	"bufio"
	"context"
	"flag"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/ais"
	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/stream"
)

// recognizeCmd runs the full surveillance pipeline (paper Figure 1):
// fleet stream → mobility tracking → complex event recognition →
// trajectory archival, printing recognized complex events as they are
// detected and summary statistics at the end.
//
// The static world knowledge (areas of interest, vessel registry,
// ports) is regenerated from the simulator seed, so when reading a
// dataset produced by aisgen the world flags must match the ones used
// there.
//
// With -checkpoint-dir the run is crash-safe: the pipeline state is
// checkpointed atomically every -checkpoint-every slides (and once more
// on SIGINT/SIGTERM), and a restart with the same flags restores the
// newest valid checkpoint and replays the stream from its cursor —
// every fix processed exactly once across the crash.
//
//	maritime recognize -vessels 300 -hours 6            # self-contained run
//	maritime aisgen -vessels 300 -hours 6 > f.csv
//	maritime recognize -in f.csv -vessels 300           # same world, same results
//	maritime recognize -in f.csv -checkpoint-dir ckpt   # kill -9 and rerun: resumes
func recognizeCmd(fs *flag.FlagSet, stdout io.Writer) func(context.Context) error {
	world := cli.DefaultWorld()
	world.Flags(fs)
	p := cli.DefaultPipeline()
	p.Flags(fs)
	debug := cli.DebugFlag(fs)
	var (
		in    = fs.String("in", "", "input dataset (CSV/NMEA); empty = simulate internally")
		live  = fs.String("feed", "", "consume a live feed at this address (see maritime feed) instead of a file")
		quiet = fs.Bool("quiet", false, "suppress per-alert output")
	)
	return func(ctx context.Context) error {
		sim := world.Simulator()
		// Batch runs are usually observed through the final summary, but
		// long replays benefit from live stage histograms and pprof: with
		// -debug-addr the sidecar exposes both for the duration of the run.
		reg := cli.Registry()
		// Crash safety: the newest valid checkpoint is restored before the
		// stream is touched, and the stream replayed from its cursor below.
		sys, run, err := p.Start(sim, reg, log.Printf)
		if err != nil {
			return err
		}
		cli.ServeDebug(*debug, reg)

		ctx, cancel := cli.SignalContext(ctx)
		defer cancel()

		var src stream.FixSource
		var client *feed.ReconnectingClient
		// Files and simulations are read losslessly; only a live feed gets
		// the drop-oldest backlog bound.
		capacity := 0
		switch {
		case *live != "":
			// The reconnecting client survives transport faults: it re-dials
			// with backoff and resumes from the last fix it saw, and the
			// ingest stage's backlog bound keeps a slow slide from exerting
			// backpressure onto the wire. A restored run seeds the very first
			// connection with the checkpoint cursor, so the RESUME handshake
			// skips everything already processed.
			client, err = feed.DialReconnectingFrom(*live, feed.DefaultRetryPolicy(), run.Cursor())
			if err != nil {
				return err
			}
			log.Printf("consuming live feed at %s", *live)
			client.RegisterMetrics(reg)
			src = client
			capacity = p.IngestBuffer
		case *in == "":
			src = stream.NewSliceSource(sim.Run())
		default:
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			src = ais.NewScanner(bufio.NewReaderSize(f, 1<<20))
		}

		if !*quiet {
			sys.AddAlertSink(core.NewWriterSink(stdout, ""))
		}

		// An offline replay starts the file or simulation at the beginning;
		// a restored run's resume filter discards the prefix the cursor
		// covers.
		run.Ingest(src, client, capacity).RegisterMetrics(reg)

		var totalAlerts int
		var recogTime time.Duration
		res, err := run.Slides(ctx, checkpoint.Loop{
			Report: func(_ stream.Batch, rep core.SlideReport) error {
				recogTime += rep.Timings.Recognition
				totalAlerts += len(rep.Alerts)
				return nil
			},
		})
		if err != nil {
			return err
		}
		if res.Interrupted {
			// Interrupted runs intend to resume: leave the pipeline state as
			// checkpointed, do not finalize trips.
			log.Printf("interrupted after %d slides; state checkpointed, rerun to resume", res.Total)
			return nil
		}
		sys.Drain(time.Now())

		st := sys.Tracker().Stats()
		log.Printf("tracked %d fixes → %d critical points (compression %.1f%%)",
			st.FixesIn, st.Critical, st.CompressionRatio()*100)
		log.Printf("recognized %d complex events over %d slides (mean recognition %s/slide)",
			totalAlerts, res.Slides, recogTime/time.Duration(max(1, res.Slides)))
		t4 := sys.Store().Table4Stats()
		log.Printf("archived %d trips (%d points; %d still staged)",
			t4.Trips, t4.PointsInTrajectories, t4.PointsInStaging)
		if *live != "" || p.Watchdog > 0 || run.Restored() != nil || sys.Health().State() != "ok" {
			log.Printf("health: %s", sys.Health())
		}
		return nil
	}
}
