// Command recognize runs the full surveillance pipeline (paper
// Figure 1): fleet stream → mobility tracking → complex event
// recognition → trajectory archival, printing recognized complex events
// as they are detected and summary statistics at the end.
//
// The static world knowledge (areas of interest, vessel registry,
// ports) is regenerated from the simulator seed, so when reading a
// dataset produced by aisgen the -seed/-vessels/-areas flags must match
// the ones used there.
//
// With -checkpoint-dir the run is crash-safe: the pipeline state is
// checkpointed atomically every -checkpoint-every slides (and once more
// on SIGINT/SIGTERM), and a restart with the same flags restores the
// newest valid checkpoint and replays the stream from its cursor —
// every fix processed exactly once across the crash.
//
// Usage:
//
//	recognize -vessels 300 -hours 6                 # self-contained run
//	aisgen -vessels 300 -hours 6 > f.csv
//	recognize -in f.csv -vessels 300                # same world, same results
//	recognize -in f.csv -checkpoint-dir ckpt        # kill -9 and rerun: resumes
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ais"
	"repro/internal/analytics"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tracker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("recognize: ")

	var (
		in        = flag.String("in", "", "input dataset (CSV/NMEA); empty = simulate internally")
		live      = flag.String("feed", "", "consume a live feed at this address (see cmd/feed) instead of a file")
		vessels   = flag.Int("vessels", 300, "fleet size (must match aisgen when -in is used)")
		hours     = flag.Float64("hours", 6, "simulated duration (internal runs only)")
		seed      = flag.Int64("seed", 1, "world/fleet seed")
		areas     = flag.Int("areas", 35, "areas of interest")
		window    = flag.Duration("window", time.Hour, "window range ω")
		slide     = flag.Duration("slide", 10*time.Minute, "window slide β")
		shards    = flag.Int("shards", 0, "mobility-tracker shards (0 = four per CPU, 1 = serial)")
		quiet     = flag.Bool("quiet", false, "suppress per-alert output")
		watchdog  = flag.Duration("watchdog", 0, "per-slide budget of recognition and of each tracker shard; a wedged one is quarantined (0 = off)")
		degrade   = flag.Bool("degrade", false, "shed work under overload (defer archival → instantaneous-only recognition → shed stationary vessels); meaningful for live feeds")
		degSlide  = flag.Duration("degrade-slide-high", 0, "per-slide cost above which the pipeline degrades (0 = 80% of -slide)")
		degDepth  = flag.Int("degrade-depth-high", 0, "ingest-backlog depth above which the pipeline degrades (0 = 3/4 of -ingest-buffer)")
		ingest    = flag.Int("ingest-buffer", 8192, "ingest backlog bound for live feeds, in fixes; beyond it the oldest are dropped and counted (0 = lossless, one slide of read-ahead, backpressure to the feed)")
		debug     = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address while the run lasts (empty = off)")
		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint directory for crash-safe restart (empty = off)")
		ckptEvery = flag.Int("checkpoint-every", 6, "checkpoint every N slides on the slide grid: at each query time that is a multiple of N × -slide, the same cut a cluster worker makes (plus a final checkpoint at the end)")
		pairwise  = flag.Bool("pairwise", false, "run the cross-vessel analytics tier (rendezvous, dark gap linking, collision screening)")
	)
	flag.Parse()

	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = *vessels
	cfg.Seed = *seed
	cfg.NumAreas = *areas
	cfg.Duration = time.Duration(*hours * float64(time.Hour))
	sim := fleetsim.NewSimulator(cfg)
	vesselsReg, areasReg, ports := core.AdaptWorld(sim)

	// stage is assigned once the ingest path is built (before the
	// pipeline starts sliding); the degradation ladder reads its backlog.
	var stage *stream.IngestStage
	sysCfg := core.Config{
		Window:          stream.WindowSpec{Range: *window, Slide: *slide},
		Tracker:         tracker.DefaultParams(),
		Recognition:     maritime.Config{Window: *window},
		TrackerShards:   *shards,
		WatchdogTimeout: *watchdog,
	}
	if *pairwise {
		sysCfg.Analytics = &analytics.Config{EnableCollision: true}
	}
	if *degrade {
		spec := &core.DegradeSpec{SlideHigh: *degSlide, DepthHigh: *degDepth}
		if spec.SlideHigh <= 0 {
			spec.SlideHigh = *slide * 8 / 10
		}
		if spec.DepthHigh <= 0 && *ingest > 0 {
			spec.DepthHigh = *ingest * 3 / 4
		}
		spec.DepthFunc = func() int {
			if stage == nil {
				return 0
			}
			return stage.Pending()
		}
		sysCfg.Degrade = spec
	}
	sys := core.NewSystem(sysCfg, vesselsReg, areasReg, ports)

	var reg *obs.Registry
	if *debug != "" {
		// Batch runs are usually observed through the final summary, but
		// long replays benefit from live stage histograms and pprof: the
		// sidecar exposes both for the duration of the run.
		reg = obs.NewRegistry()
		obs.RegisterRuntime(reg)
		sys.RegisterMetrics(reg)
		go func() {
			log.Printf("debug on http://%s  (/metrics /debug/pprof)", *debug)
			if err := http.ListenAndServe(*debug, obs.DebugMux(reg)); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	// Crash safety: restore the newest valid checkpoint before touching
	// the stream, then replay from its cursor below. Invalid files are
	// skipped (reported, never fatal); none at all is a cold start.
	runCfg := checkpoint.RunConfig{System: sys, Every: *ckptEvery, Slide: *slide, Logf: log.Printf}
	if *ckptDir != "" {
		mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: *ckptDir})
		if err != nil {
			log.Fatal(err)
		}
		if reg != nil {
			mgr.RegisterMetrics(reg)
		}
		runCfg.Checkpoints = mgr
	}
	run, err := checkpoint.Restore(runCfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
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
			log.Fatal(err)
		}
		log.Printf("consuming live feed at %s", *live)
		if reg != nil {
			client.RegisterMetrics(reg)
		}
		src = client
		capacity = *ingest
	case *in == "":
		src = stream.NewSliceSource(sim.Run())
	default:
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		src = ais.NewScanner(bufio.NewReaderSize(f, 1<<20))
	}

	// Alert formatting goes through the shared sink instead of a
	// driver-local printing loop.
	if !*quiet {
		sys.AddAlertSink(core.NewWriterSink(os.Stdout, ""))
	}

	// An offline replay starts the file or simulation at the beginning;
	// a restored run's resume filter discards the prefix the cursor
	// covers.
	stage = run.Ingest(src, client, capacity)
	if reg != nil {
		stage.RegisterMetrics(reg)
	}

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
		log.Fatal(err)
	}
	if res.Interrupted {
		// Interrupted runs intend to resume: leave the pipeline state as
		// checkpointed, do not finalize trips.
		log.Printf("interrupted after %d slides; state checkpointed, rerun to resume", res.Total)
		return
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
	if *live != "" || *watchdog > 0 || run.Restored() != nil || sys.Health().State() != "ok" {
		log.Printf("health: %s", sys.Health())
	}
}
