package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"slices"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/serve"
)

// clusterCmd runs the shared tiers of a distributed recognition cluster
// in one process: the router, which partitions the upstream AIS stream
// into per-vessel-slice feeds by the same MMSI hash the in-process
// tracker shards use, and the coordinator, which merges the workers'
// slide outputs deterministically, runs CE recognition over the merged
// event stream, and serves alerts and cluster health over HTTP. Workers
// are separate `maritime worker` processes, one per slice.
//
// Each slice is a feed.Server on the same NMEA wire as `maritime feed`
// (with the RESUME handshake and keepalives), so a worker reads its
// slice exactly as a single process reads the upstream feed. Without
// -feed, the upstream is an in-process static replay of the simulated
// fleet. The HTTP endpoints are the gateway's: GET /events, GET /alerts
// (?n= newest, the whole ring without n), GET /healthz and GET /metrics.
//
// A three-worker cluster on one machine:
//
//	maritime cluster -workers 3 -vessels 300 -hours 3
//	maritime worker -id 0 -workers 3 -vessels 300   # × 3, -id 0..2
//	maritime worker -id 1 -workers 3 -vessels 300
//	maritime worker -id 2 -workers 3 -vessels 300
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
func clusterCmd(fs *flag.FlagSet, _ io.Writer) func(context.Context) error {
	// The coordinator regenerates the same static world the workers
	// carry; the world flags must match across every process.
	world := cli.DefaultWorld()
	world.Hours = 3
	world.Flags(fs)
	p := cli.DefaultPipeline()
	p.Pairwise = true
	p.Flags(fs, "window", "slide", "pairwise")
	var (
		addr    = fs.String("addr", "127.0.0.1:8080", "HTTP listen address (/events /alerts /healthz /metrics)")
		live    = fs.String("feed", "", "consume a live feed at this address (see maritime feed); empty = simulate internally")
		speedup = fs.Float64("speedup", 600, "time acceleration of the internal feed (0 = as fast as possible)")

		workers   = fs.Int("workers", 3, "cluster width: number of vessel slices / worker processes")
		sliceBase = fs.Int("slice-base-port", 4101, "slice i listens on 127.0.0.1:(base+i)")
		sliceCSV  = fs.String("slice-addrs", "", "comma-separated slice listen addresses (overrides -slice-base-port)")
		uplink    = fs.String("uplink", "127.0.0.1:4200", "coordinator listen address for worker uplinks")
		retain    = fs.Int("retain", 1<<16, "per-slice replay-ring bound, in fixes")
		queueCap  = fs.Int("queue-cap", 64, "per-worker pending-slide bound before the oldest slide is force-merged")
		ring      = fs.Int("ring", 1024, "alert-history retention for SSE replay and /alerts, in alerts")

		manifestDir = fs.String("manifest-dir", "", "record cluster manifests here (empty = off)")
		restoreCSV  = fs.String("restore-dirs", "", "comma-separated worker checkpoint dirs; restore the newest coherent generation")
		keep        = fs.Int("manifest-keep", 3, "manifest generations to retain")
	)
	return func(ctx context.Context) error {
		sim := world.Simulator()
		vesselsReg, areasReg, ports := core.AdaptWorld(sim)
		reg := cli.Registry()

		var store *cluster.ManifestStore
		var restored *cluster.Manifest
		if *manifestDir != "" {
			var err error
			store, err = cluster.NewManifestStore(*manifestDir, *keep)
			if err != nil {
				return err
			}
		}
		if *restoreCSV != "" {
			if store == nil {
				return errors.New("-restore-dirs needs -manifest-dir")
			}
			dirs := strings.Split(*restoreCSV, ",")
			if len(dirs) != *workers {
				return fmt.Errorf("-restore-dirs lists %d dirs for %d workers", len(dirs), *workers)
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
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Workers:   *workers,
			System:    p.Config(),
			Vessels:   vesselsReg,
			Areas:     areasReg,
			Ports:     ports,
			QueueCap:  *queueCap,
			Hub:       hub,
			Manifests: store,
			Restore:   restored,
			Logf:      log.Printf,
		})
		if err != nil {
			return err
		}
		coord.RegisterMetrics(reg)

		ctx, cancel := cli.SignalContext(ctx)
		defer cancel()

		coordAddr, err := coord.ListenAndServe(ctx, *uplink)
		if err != nil {
			return err
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
				return fmt.Errorf("-slice-addrs lists %d addresses for %d workers", len(parts), *workers)
			}
			copy(sliceAddrs, parts)
		} else {
			for i := range sliceAddrs {
				sliceAddrs[i] = fmt.Sprintf("127.0.0.1:%d", *sliceBase+i)
			}
		}
		bound, err := router.ListenSlices(ctx, sliceAddrs)
		if err != nil {
			return err
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
			feedAddr = cli.InternalFeed(ctx, sim, *speedup)
		}
		var cursor feed.Cursor
		if restored != nil {
			cursor = restored.Cursor
		}
		client, err := feed.DialReconnectingFrom(feedAddr, feed.DefaultRetryPolicy(), cursor)
		if err != nil {
			return err
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

		log.Printf("cluster gateway on http://%s  (endpoints: /events /alerts /healthz /metrics)", *addr)
		shutdown := cli.ServeHTTP(*addr, mux(coord, router, hub, reg))

		select {
		case <-coord.Done():
			f := coord.Final()
			st := coord.Stats()
			log.Printf("cluster done: %d slides merged (%d forced), %d alerts, %d trips archived",
				f.Slides, st.ForcedMerges, f.Alerts, f.Final.Trips)
			causes := make([]string, 0, len(st.DropsByCause))
			for cause := range st.DropsByCause {
				causes = append(causes, cause)
			}
			slices.Sort(causes)
			for _, cause := range causes {
				log.Printf("  dropped slides: %s = %d", cause, st.DropsByCause[cause])
			}
			log.Printf("health: %s", coord.Health())
			log.Printf("still serving alert history and health (Ctrl-C to quit)")
			<-ctx.Done()
		case <-ctx.Done():
		}

		hub.Close()
		shutdown()
		return nil
	}
}
