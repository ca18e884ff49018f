// Command cluster runs the shared tiers of a distributed recognition
// cluster in one process: the router, which partitions the upstream AIS
// stream into per-vessel-slice feeds by the same MMSI hash the
// in-process tracker shards use, and the coordinator, which merges the
// workers' slide outputs deterministically, runs CE recognition over
// the merged event stream, and serves alerts and cluster health over
// HTTP. Workers are separate cmd/worker processes, one per slice.
//
// Each slice is a feed.Server on the same NMEA wire as cmd/feed (with
// the RESUME handshake and keepalives), so a worker reads its slice
// exactly as a single process reads the upstream feed. Without -feed,
// the upstream is an in-process static replay of the simulated fleet.
// The HTTP endpoints are the gateway's: GET /events, GET /alerts (?n=
// newest, the whole ring without n), GET /healthz and GET /metrics.
//
// A three-worker cluster on one machine:
//
//	cluster -workers 3 -vessels 300 -hours 3
//	worker -id 0 -workers 3 -vessels 300   # × 3, -id 0..2
//	worker -id 1 -workers 3 -vessels 300
//	worker -id 2 -workers 3 -vessels 300
//
//	curl -N 'http://localhost:8080/events'
//	curl 'http://localhost:8080/healthz'
//	curl 'http://localhost:8080/metrics'
//
// With -manifest-dir the coordinator binds the workers' autonomous
// checkpoints into atomic cluster manifests; with -restore-dirs (the
// workers' checkpoint directories, reachable from this process) a
// restart restores the newest coherent generation and logs the
// checkpoint sequence each worker must be pinned to (-pin-seq).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/analytics"
	"repro/internal/cluster"
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
	log.SetPrefix("cluster: ")

	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (/events /alerts /healthz /metrics)")
		live    = flag.String("feed", "", "consume a live feed at this address (see cmd/feed); empty = simulate internally")
		vessels = flag.Int("vessels", 300, "fleet size (must match the feed's world when -feed is used)")
		hours   = flag.Float64("hours", 3, "simulated duration (internal runs only)")
		seed    = flag.Int64("seed", 1, "world/fleet seed")
		areas   = flag.Int("areas", 35, "areas of interest")
		speedup = flag.Float64("speedup", 600, "time acceleration of the internal feed (0 = as fast as possible)")
		window  = flag.Duration("window", time.Hour, "window range ω")
		slide   = flag.Duration("slide", 10*time.Minute, "window slide β")

		workers   = flag.Int("workers", 3, "cluster width: number of vessel slices / worker processes")
		sliceBase = flag.Int("slice-base-port", 4101, "slice i listens on 127.0.0.1:(base+i)")
		sliceCSV  = flag.String("slice-addrs", "", "comma-separated slice listen addresses (overrides -slice-base-port)")
		uplink    = flag.String("uplink", "127.0.0.1:4200", "coordinator listen address for worker uplinks")
		retain    = flag.Int("retain", 1<<16, "per-slice replay-ring bound, in fixes")
		queueCap  = flag.Int("queue-cap", 64, "per-worker pending-slide bound before the oldest slide is force-merged")
		ring      = flag.Int("ring", 1024, "alert-history retention for SSE replay and /alerts, in alerts")

		manifestDir = flag.String("manifest-dir", "", "record cluster manifests here (empty = off)")
		restoreCSV  = flag.String("restore-dirs", "", "comma-separated worker checkpoint dirs; restore the newest coherent generation")
		keep        = flag.Int("manifest-keep", 3, "manifest generations to retain")
		pairwise    = flag.Bool("pairwise", true, "run the cross-vessel analytics tier on the coordinator (rendezvous, dark gap linking, collision screening)")
	)
	flag.Parse()

	// The coordinator regenerates the same static world the workers
	// carry; -seed/-vessels/-areas must match across every process.
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = *vessels
	cfg.Seed = *seed
	cfg.NumAreas = *areas
	cfg.Duration = time.Duration(*hours * float64(time.Hour))
	sim := fleetsim.NewSimulator(cfg)
	vesselsReg, areasReg, ports := core.AdaptWorld(sim)

	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)

	var store *cluster.ManifestStore
	var restored *cluster.Manifest
	if *manifestDir != "" {
		var err error
		store, err = cluster.NewManifestStore(*manifestDir, *keep)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *restoreCSV != "" {
		if store == nil {
			log.Fatal("-restore-dirs needs -manifest-dir")
		}
		dirs := strings.Split(*restoreCSV, ",")
		if len(dirs) != *workers {
			log.Fatalf("-restore-dirs lists %d dirs for %d workers", len(dirs), *workers)
		}
		var err error
		restored, err = cluster.RestoreCluster(store, dirs)
		if err != nil {
			log.Printf("restore: skipped generations: %v", err)
		}
		if restored != nil {
			log.Printf("restored manifest: query %s, %d slides", restored.Query.Format(time.RFC3339), restored.Slides)
			for w, seq := range restored.WorkerSeqs {
				log.Printf("  start worker %d with -pin-seq %d", w, seq)
			}
		}
	}

	hub := serve.NewHub(*ring)
	hub.RegisterMetrics(reg)
	coordCfg := cluster.CoordinatorConfig{
		Workers: *workers,
		System: core.Config{
			Window:      stream.WindowSpec{Range: *window, Slide: *slide},
			Tracker:     tracker.DefaultParams(),
			Recognition: maritime.Config{Window: *window},
		},
		Vessels:   vesselsReg,
		Areas:     areasReg,
		Ports:     ports,
		QueueCap:  *queueCap,
		Hub:       hub,
		Manifests: store,
		Restore:   restored,
		Logf:      log.Printf,
	}
	if *pairwise {
		coordCfg.System.Analytics = &analytics.Config{EnableCollision: true}
	}
	coord, err := cluster.NewCoordinator(coordCfg)
	if err != nil {
		log.Fatal(err)
	}
	coord.RegisterMetrics(reg)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	coordAddr, err := coord.ListenAndServe(ctx, *uplink)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("coordinator uplink on %s", coordAddr)

	router := cluster.NewRouter(cluster.RouterOptions{
		Workers:     *workers,
		RetainFixes: *retain,
		Logf:        log.Printf,
	})
	router.RegisterMetrics(reg)
	sliceAddrs := make([]string, *workers)
	if *sliceCSV != "" {
		parts := strings.Split(*sliceCSV, ",")
		if len(parts) != *workers {
			log.Fatalf("-slice-addrs lists %d addresses for %d workers", len(parts), *workers)
		}
		copy(sliceAddrs, parts)
	} else {
		for i := range sliceAddrs {
			sliceAddrs[i] = fmt.Sprintf("127.0.0.1:%d", *sliceBase+i)
		}
	}
	bound, err := router.ListenSlices(ctx, sliceAddrs)
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range bound {
		log.Printf("slice %d feed on %s", i, a)
	}

	// The ingest path mirrors cmd/serve: a reconnecting client on either
	// the live feed or an in-process simulation server, so the router
	// resumes upstream with the same RESUME semantics the workers use
	// downstream.
	feedAddr := *live
	if feedAddr == "" {
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
	var client *feed.ReconnectingClient
	if restored != nil {
		client, err = feed.DialReconnectingFrom(feedAddr, feed.DefaultRetryPolicy(), restored.Cursor)
	} else {
		client, err = feed.DialReconnecting(feedAddr, feed.DefaultRetryPolicy())
	}
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.RegisterMetrics(reg)
	go func() {
		<-ctx.Done()
		client.Close()
	}()

	go func() {
		if err := router.Run(ctx, client); err != nil && ctx.Err() == nil {
			log.Printf("router: %v", err)
		}
		st := router.Stats()
		log.Printf("router: stream ended, %d fixes dispatched", st.Dispatched)
	}()

	httpSrv := &http.Server{Addr: *addr, Handler: mux(coord, router, hub, reg)}
	go func() {
		log.Printf("cluster gateway on http://%s  (endpoints: /events /alerts /healthz /metrics)", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	select {
	case <-coord.Done():
		f := coord.Final()
		st := coord.Stats()
		log.Printf("cluster done: %d slides merged (%d forced), %d alerts, %d trips archived",
			f.Slides, st.ForcedMerges, f.Alerts, f.Final.Trips)
		for cause, n := range st.DropsByCause {
			log.Printf("  dropped slides: %s = %d", cause, n)
		}
		log.Printf("health: %s", coord.Health())
		log.Printf("still serving alert history and health (Ctrl-C to quit)")
		<-ctx.Done()
	case <-ctx.Done():
	}

	hub.Close()
	shutdownCtx, stop := context.WithTimeout(context.Background(), 2*time.Second)
	defer stop()
	_ = httpSrv.Shutdown(shutdownCtx)
}
