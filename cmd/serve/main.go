// Command serve is the alert gateway: it runs the full surveillance
// pipeline over a live feed (or an internal simulation) and serves the
// recognized complex events over HTTP — a Server-Sent Events stream
// with per-subscriber filters, snapshot queries over the tracker and
// the trip store, and a /healthz covering the whole ingest path. This
// is the paper's "alerts to authorities" edge (Fig. 1) turned into a
// serving tier: many consumers, none of which can stall recognition.
//
//	serve -feed 127.0.0.1:4001 -addr :8080      # against maritime feed
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
	"fmt"
	"log"
	"time"

	"repro/internal/alertlog"
	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/serve"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	run := flags(flag.CommandLine)
	flag.Parse()
	if err := run(context.Background()); err != nil {
		log.Fatal(err)
	}
}

// flags registers the gateway's flags on fs and returns the function
// that runs it once fs is parsed.
func flags(fs *flag.FlagSet) func(context.Context) error {
	world := cli.DefaultWorld()
	world.Flags(fs)
	p := cli.DefaultPipeline()
	p.Watchdog, p.Degrade, p.Pairwise = 5*time.Second, true, true
	p.Flags(fs)
	debug := cli.DebugFlag(fs)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		live     = fs.String("feed", "", "consume a live feed at this address (see maritime feed); empty = simulate internally")
		speedup  = fs.Float64("speedup", 600, "time acceleration of the internal feed (0 = as fast as possible)")
		ring     = fs.Int("ring", 1024, "alert-history retention for replay and /alerts, in alerts")
		subQueue = fs.Int("sub-queue", 256, "per-subscriber queue bound, in alerts (drop-oldest)")
		verbose  = fs.Bool("v", false, "log subscriber connects/disconnects")

		logDir      = fs.String("alert-log", "", "durable alert-log directory (empty = off); the writer appends, replicas tail")
		replicaMode = fs.Bool("replica", false, "serve as a stateless replica tailing -alert-log (no pipeline)")
		replicaName = fs.String("replica-name", "", "replica identity for /healthz and metrics labels (default: the listen address)")
		logSegBytes = fs.Int64("log-segment-bytes", 1<<20, "alert-log segment rotation threshold, in bytes")
		logKeep     = fs.Int("log-keep", 8, "alert-log segments retained (older ones are pruned)")
	)
	return func(ctx context.Context) error {
		if *replicaMode {
			if *logDir == "" {
				return errors.New("-replica requires -alert-log")
			}
			name := *replicaName
			if name == "" {
				name = *addr
			}
			runReplica(ctx, *addr, *logDir, name, *ring, *subQueue, *verbose)
			return nil
		}

		// The static world knowledge is regenerated from the seed; when
		// consuming a live feed, the world flags must match its own.
		sim := world.Simulator()
		// One registry covers every tier: pipeline stage timings, hub
		// fan-out, feed transport, ingest stage, checkpointing and the Go
		// runtime all land in the same /metrics exposition. Crash safety:
		// pipeline and hub state are restored before the gateway starts
		// serving or the pipeline touches the stream.
		reg := cli.Registry()
		sys, run, err := p.Start(sim, reg, log.Printf)
		if err != nil {
			return err
		}
		restored := run.Restored()

		// The durable alert log opens (and recovers any torn tail) before the
		// hub exists, so the sequence floor below sees the post-recovery tail.
		var alog *alertlog.Log
		if *logDir != "" {
			alog, err = alertlog.Open(*logDir, alertlog.Options{SegmentBytes: *logSegBytes, KeepSegments: *logKeep})
			if err != nil {
				return fmt.Errorf("alert-log: %w", err)
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
		} else if alog != nil && alog.LastSeq() > 0 {
			// Fresh process over an existing log (e.g. checkpointing is
			// off): continue the log's sequence rather than restarting at 1
			// and colliding with durable records.
			last := alog.LastSeq()
			gw.Hub().Restore(serve.HubSnapshot{Seq: last, Published: last})
		}
		if alog != nil {
			// Replayed slides re-publish under already-durable sequence
			// numbers; the log's idempotent append skips them, so the log
			// stays duplicate-free across crash/restart.
			gw.Hub().AttachLog(alog)
		}

		ctx, cancel := cli.SignalContext(ctx)
		defer cancel()

		// Self-contained mode: an in-process feed server replays the
		// simulation over loopback, so the ingest path is the same either
		// way — including the RESUME handshake a restored run performs.
		feedAddr := *live
		if feedAddr == "" {
			feedAddr = cli.InternalFeed(ctx, sim, *speedup)
		}
		// A restored run's first connection resumes at the checkpoint cursor.
		client, err := feed.DialReconnectingFrom(feedAddr, feed.DefaultRetryPolicy(), run.Cursor())
		if err != nil {
			return err
		}
		client.RegisterMetrics(reg)
		// The ingest stage reads and decodes the feed one slide ahead of the
		// pipeline on its own goroutine; a restored run continues the
		// checkpoint's slide grid.
		run.Ingest(client, client, p.IngestBuffer).RegisterMetrics(reg)
		cli.ServeDebug(*debug, reg)

		log.Printf("gateway on http://%s  (endpoints: /events /alerts /vessels /trips /od /report /healthz /metrics)", *addr)
		shutdown := cli.ServeHTTP(*addr, gw.Handler())

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
		shutdown()
		st := gw.Hub().Totals()
		log.Printf("fan-out: %d published, %d delivered, %d dropped across %d live subscribers",
			st.Published, st.Delivered, st.Dropped, st.Subscribers)
		return nil
	}
}

// runReplica serves the alert stream from the durable log alone: no
// pipeline, no writer state — a hub fed by a log tailer plus the same
// SSE protocol as the writer gateway. Any number of replicas can tail
// the same directory; each is independently killable.
func runReplica(ctx context.Context, addr, logDir, name string, ring, subQueue int, verbose bool) {
	log.SetPrefix("serve[" + name + "]: ")
	reg := cli.Registry()
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

	ctx, cancel := cli.SignalContext(ctx)
	defer cancel()
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		tailer.Run(ctx)
	}()

	log.Printf("replica on http://%s tailing %s  (endpoints: /events /alerts /healthz /metrics)", addr, logDir)
	shutdown := cli.ServeHTTP(addr, rp.Handler())

	<-ctx.Done()
	<-tailDone
	hub.Close()
	shutdown()
	st := hub.Totals()
	ts := tailer.Stats()
	log.Printf("replica done: applied seq %d (%d records, %d skipped; %d polls, woken %d by notify / %d by timer, %d watch errors), %d delivered, %d dropped",
		ts.Applied, ts.Records, ts.Skipped, ts.Polls, ts.NotifyWakeups, ts.TimerWakeups, ts.WatchErrors, st.Delivered, st.Dropped)
}
