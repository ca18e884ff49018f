// Command serve is the alert gateway: it runs the full surveillance
// pipeline over a live feed (or an internal simulation) and serves the
// recognized complex events over HTTP — a Server-Sent Events stream
// with per-subscriber filters, snapshot queries over the tracker and
// the trip store, and a /healthz covering the whole ingest path. This
// is the paper's "alerts to authorities" edge (Fig. 1) turned into a
// serving tier: many consumers, none of which can stall recognition.
//
//	serve -feed 127.0.0.1:4001 -addr :8080      # against cmd/feed
//	serve -vessels 150 -hours 3 -speedup 600    # self-contained
//
//	curl -N 'http://localhost:8080/events?ce=illegalShipping'
//	curl 'http://localhost:8080/vessels' | head
//	curl 'http://localhost:8080/healthz'
//	curl 'http://localhost:8080/metrics'
//
// With -checkpoint-dir the gateway is crash-safe: pipeline and hub
// state are checkpointed atomically every -checkpoint-every slides and
// once more on SIGINT/SIGTERM; a restart restores the newest valid
// checkpoint, resumes the feed from its cursor, and continues the
// envelope sequence exactly where it stopped, so SSE clients
// reconnecting with Last-Event-ID see every alert exactly once.
//
// With -alert-log the gateway appends every published envelope to a
// segmented durable log (CRC-framed, fsync'd) before any subscriber
// sees it. Stateless replicas then serve the same stream from the log
// alone:
//
//	serve -alert-log /var/lib/maritime/alerts -addr :8080          # writer
//	serve -replica -alert-log /var/lib/maritime/alerts -addr :8081 # replica
//	serve -replica -alert-log /var/lib/maritime/alerts -addr :8082 # another
//
// Replicas tail the log, re-publish under the log-global sequence
// numbers, and answer /events with full Last-Event-ID replay — kill
// one mid-stream and reconnect to another with the last id: every
// alert arrives exactly once.
//
// With -debug-addr a sidecar listener additionally serves /metrics and
// net/http/pprof on an address that can stay private to operators.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/alertlog"
	"repro/internal/analytics"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")

	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		live    = flag.String("feed", "", "consume a live feed at this address (see cmd/feed); empty = simulate internally")
		vessels = flag.Int("vessels", 300, "fleet size (must match the feed's world when -feed is used)")
		hours   = flag.Float64("hours", 6, "simulated duration (internal runs only)")
		seed    = flag.Int64("seed", 1, "world/fleet seed")
		areas   = flag.Int("areas", 35, "areas of interest")
		speedup = flag.Float64("speedup", 600, "time acceleration of the internal feed (0 = as fast as possible)")
		window  = flag.Duration("window", time.Hour, "window range ω")
		slide   = flag.Duration("slide", 10*time.Minute, "window slide β")
		shards  = flag.Int("shards", 0, "mobility-tracker shards (0 = four per CPU, 1 = serial)")

		watchdog  = flag.Duration("watchdog", 5*time.Second, "per-slide budget of recognition and of each tracker shard; a wedged one is quarantined (0 = off)")
		degrade   = flag.Bool("degrade", true, "shed work under overload (defer archival → instantaneous-only recognition → shed stationary vessels) and climb back when healthy")
		degSlide  = flag.Duration("degrade-slide-high", 0, "per-slide cost above which the pipeline degrades (0 = 80% of -slide)")
		degDepth  = flag.Int("degrade-depth-high", 0, "ingest-backlog depth above which the pipeline degrades (0 = 3/4 of -ingest-buffer)")
		ingest    = flag.Int("ingest-buffer", 8192, "ingest backlog bound, in fixes; beyond it the oldest are dropped and counted (0 = lossless, one slide of read-ahead, backpressure to the feed)")
		ring      = flag.Int("ring", 1024, "alert-history retention for replay and /alerts, in alerts")
		subQueue  = flag.Int("sub-queue", 256, "per-subscriber queue bound, in alerts (drop-oldest)")
		debug     = flag.String("debug-addr", "", "sidecar listener for /metrics and /debug/pprof (empty = off; /metrics is always on the main address)")
		verbose   = flag.Bool("v", false, "log subscriber connects/disconnects")
		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint directory for crash-safe restart (empty = off)")
		ckptEvery = flag.Int("checkpoint-every", 6, "checkpoint every N slides on the slide grid: at each query time that is a multiple of N × -slide, the same cut a cluster worker makes (plus a final checkpoint at the end)")
		pairwise  = flag.Bool("pairwise", true, "run the cross-vessel analytics tier (rendezvous, dark gap linking, collision screening)")

		logDir      = flag.String("alert-log", "", "durable alert-log directory (empty = off); the writer appends, replicas tail")
		replicaMode = flag.Bool("replica", false, "serve as a stateless replica tailing -alert-log (no pipeline)")
		replicaName = flag.String("replica-name", "", "replica identity for /healthz and metrics labels (default: the listen address)")
		logSegBytes = flag.Int64("log-segment-bytes", 1<<20, "alert-log segment rotation threshold, in bytes")
		logKeep     = flag.Int("log-keep", 8, "alert-log segments retained (older ones are pruned)")
	)
	flag.Parse()

	if *replicaMode {
		if *logDir == "" {
			log.Fatal("-replica requires -alert-log")
		}
		name := *replicaName
		if name == "" {
			name = *addr
		}
		runReplica(*addr, *logDir, name, *ring, *subQueue, *verbose)
		return
	}

	// The static world knowledge is regenerated from the seed; when
	// consuming cmd/feed, -seed/-vessels/-areas must match its flags.
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

	// One registry covers every tier: pipeline stage timings, hub
	// fan-out, feed transport, ingest stage, checkpointing and the Go
	// runtime all land in the same /metrics exposition.
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	sys.RegisterMetrics(reg)

	// Crash safety: restore pipeline and hub state before the gateway
	// starts serving or the pipeline touches the stream.
	runCfg := checkpoint.RunConfig{System: sys, Every: *ckptEvery, Slide: *slide, Logf: log.Printf}
	if *ckptDir != "" {
		mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: *ckptDir})
		if err != nil {
			log.Fatal(err)
		}
		mgr.RegisterMetrics(reg)
		runCfg.Checkpoints = mgr
	}
	run, err := checkpoint.Restore(runCfg)
	if err != nil {
		log.Fatal(err)
	}
	restored := run.Restored()

	// The durable alert log opens (and recovers any torn tail) before the
	// hub exists, so the sequence floor below sees the post-recovery tail.
	var alog *alertlog.Log
	if *logDir != "" {
		alog, err = alertlog.Open(*logDir, alertlog.Options{SegmentBytes: *logSegBytes, KeepSegments: *logKeep})
		if err != nil {
			log.Fatalf("alert-log: %v", err)
		}
		defer alog.Close()
		alog.RegisterMetrics(reg)
		st := alog.Stats()
		log.Printf("alert-log %s: %d segments, seq %d..%d (%d records truncated on recovery)",
			*logDir, st.Segments, st.FirstSeq, st.LastSeq, st.Truncations)
	}

	opts := serve.Options{RingSize: *ring, SubscriberQueue: *subQueue, Metrics: reg}
	if *verbose {
		opts.Logf = log.Printf
	}
	gw := serve.New(sys, opts)
	if restored != nil && restored.Hub != nil {
		// The restored hub continues the envelope sequence, so the slides
		// replayed below re-publish their alerts under the same sequence
		// numbers and reconnecting SSE clients deduplicate them.
		gw.Hub().Restore(*restored.Hub)
	}
	if alog != nil {
		if restored == nil || restored.Hub == nil {
			// Fresh process over an existing log (e.g. checkpointing is
			// off): continue the log's sequence rather than restarting at 1
			// and colliding with durable records.
			if last := alog.LastSeq(); last > 0 {
				gw.Hub().Restore(serve.HubSnapshot{Seq: last, Published: last})
			}
		}
		// Replayed slides re-publish under already-durable sequence
		// numbers; the log's idempotent append skips them, so the log
		// stays duplicate-free across crash/restart.
		gw.Hub().AttachLog(alog)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	feedAddr := *live
	if feedAddr == "" {
		// Self-contained mode: an in-process feed server replays the
		// simulation over loopback, so the ingest path (reconnecting
		// client, ingest stage, health accounting) is the same either
		// way — including the RESUME handshake a restored run performs.
		srv := &feed.Server{Source: feed.NewReplay(sim.Run()), Speedup: *speedup, HandshakeWait: feed.DefaultHandshakeWait}
		addrCh := make(chan net.Addr, 1)
		go func() {
			if err := srv.ListenAndServe(ctx, "127.0.0.1:0", addrCh); err != nil {
				log.Printf("internal feed: %v", err)
			}
		}()
		feedAddr = (<-addrCh).String()
		log.Printf("internal feed on %s (%gx)", feedAddr, *speedup)
	}

	// A restored run's first connection resumes at the checkpoint cursor.
	client, err := feed.DialReconnectingFrom(feedAddr, feed.DefaultRetryPolicy(), run.Cursor())
	if err != nil {
		log.Fatal(err)
	}
	client.RegisterMetrics(reg)
	// The ingest stage reads and decodes the feed one slide ahead of the
	// pipeline on its own goroutine; a restored run continues the
	// checkpoint's slide grid.
	stage = run.Ingest(client, client, *ingest)
	stage.RegisterMetrics(reg)

	if *debug != "" {
		// The debug sidecar binds its own listener so pprof and metrics
		// scrapes never share the gateway's address or its middleware.
		go func() {
			log.Printf("debug on http://%s  (/metrics /debug/pprof)", *debug)
			if err := http.ListenAndServe(*debug, obs.DebugMux(reg)); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	go func() {
		log.Printf("gateway on http://%s  (endpoints: /events /alerts /vessels /trips /od /report /healthz /metrics)", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	// The pipeline loop: one goroutine drives recognition; alerts reach
	// subscribers through the hub without ever blocking this loop. On
	// SIGINT/SIGTERM it finishes its in-flight slide, checkpoints, and
	// exits.
	done := make(chan struct{})
	go func() {
		defer close(done)
		alerts := 0
		res, err := run.Slides(ctx, checkpoint.Loop{
			Pipeline: gw,
			Report: func(_ stream.Batch, rep core.SlideReport) error {
				alerts += len(rep.Alerts)
				return nil
			},
			// Checkpoints capture pipeline and hub together under Quiesce,
			// so no slide is in flight and the two are mutually consistent;
			// a rewind after a fault restores them together the same way.
			Capture: func(st *checkpoint.State) (err error) {
				gw.Quiesce(func() {
					if st.System, err = sys.Snapshot(); err == nil {
						hub := gw.Hub().Snapshot()
						st.Hub = &hub
					}
				})
				return err
			},
			Restore: func(st *checkpoint.State) (err error) {
				gw.Quiesce(func() {
					if err = sys.RestoreSnapshot(st.System); err == nil && st.Hub != nil {
						gw.Hub().Restore(*st.Hub)
					}
				})
				return err
			},
		})
		if err != nil {
			log.Printf("feed: %v", err)
		}
		if res.Interrupted {
			// Interrupted: state is checkpointed for resumption; skip
			// Drain so trips stay replayable.
			log.Printf("interrupted after %d slides; state checkpointed, restart to resume", res.Total)
			return
		}
		if !res.Last.IsZero() {
			gw.Drain(res.Last)
		}
		gw.StreamEnded()
		log.Printf("stream ended after %d slides, %d alerts published; still serving snapshots (Ctrl-C to quit)",
			res.Slides, alerts)
		log.Printf("health: %s", sys.Health())
	}()

	// Serve until interrupted; the gateway keeps answering snapshot and
	// history queries after the stream ends.
	<-ctx.Done()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		log.Printf("pipeline did not stop in time; shutting down anyway")
	}
	// Close the hub first so SSE pump loops end their responses cleanly
	// (EOF, not a reset) and Shutdown is not held up by streaming
	// subscribers.
	gw.Hub().Close()
	shutdownCtx, stop := context.WithTimeout(context.Background(), 2*time.Second)
	defer stop()
	_ = httpSrv.Shutdown(shutdownCtx)
	st := gw.Hub().Totals()
	log.Printf("fan-out: %d published, %d delivered, %d dropped across %d live subscribers",
		st.Published, st.Delivered, st.Dropped, st.Subscribers)
}

// runReplica serves the alert stream from the durable log alone: no
// pipeline, no writer state — a hub fed by a log tailer plus the same
// SSE protocol as the writer gateway. Any number of replicas can tail
// the same directory; each is independently killable.
func runReplica(addr, logDir, name string, ring, subQueue int, verbose bool) {
	log.SetPrefix("serve[" + name + "]: ")
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)

	hub := serve.NewHub(ring)
	hub.AttachReplay(alertlog.OpenReplay(logDir))
	hub.RegisterMetrics(reg)

	tailer := alertlog.NewTailer(logDir, 0, hub.PublishEnvelopes, alertlog.TailOptions{})
	tailer.RegisterMetrics(reg, name)

	opt := serve.ReplicaOptions{
		Name:            name,
		SubscriberQueue: subQueue,
		Metrics:         reg,
		Info: func() serve.ReplicaInfo {
			st := tailer.Stats()
			return serve.ReplicaInfo{Name: name, Applied: st.Applied, Lag: tailer.Lag(), Skipped: st.Skipped, Notify: st.Notify}
		},
	}
	if verbose {
		opt.Logf = log.Printf
	}
	rp := serve.NewReplica(hub, opt)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		tailer.Run(ctx)
	}()

	httpSrv := &http.Server{Addr: addr, Handler: rp.Handler()}
	go func() {
		log.Printf("replica on http://%s tailing %s  (endpoints: /events /alerts /healthz /metrics)", addr, logDir)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	<-ctx.Done()
	<-tailDone
	hub.Close()
	shutdownCtx, stop := context.WithTimeout(context.Background(), 2*time.Second)
	defer stop()
	_ = httpSrv.Shutdown(shutdownCtx)
	st := hub.Totals()
	ts := tailer.Stats()
	log.Printf("replica done: applied seq %d (%d records, %d skipped; %d polls, woken %d by notify / %d by timer, %d watch errors), %d delivered, %d dropped",
		ts.Applied, ts.Records, ts.Skipped, ts.Polls, ts.NotifyWakeups, ts.TimerWakeups, ts.WatchErrors, st.Delivered, st.Dropped)
}
