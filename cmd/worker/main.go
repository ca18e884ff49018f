// Command worker runs one vessel slice of a distributed recognition
// cluster (see cmd/cluster): it consumes its slice feed from the router
// through the reconnecting client, runs mobility tracking and trajectory
// archival for its vessels, checkpoints autonomously, and ships every
// slide's critical points to the coordinator, where the merged stream is
// recognized. Recognition is disabled here by construction — several
// maritime CEs aggregate across vessels, so only the coordinator sees
// enough of the fleet to decide them.
//
//	worker -id 0 -workers 3 -vessels 300
//	worker -id 1 -workers 3 -vessels 300 -checkpoint-dir /var/lib/w1
//
// The world flags (-vessels -seed -areas -window -slide) must match the
// cluster process exactly; the coordinator rejects a Hello with a
// mismatched width. After a crash, restarting with the same
// -checkpoint-dir resumes from the newest checkpoint and RESUMEs the
// slice feed, so the coordinator sees each slide exactly once. After a
// whole-cluster restore, pass the -pin-seq the cluster process logged so
// every worker rejoins on the same manifest generation.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tracker"
)

func main() {
	log.SetFlags(0)

	var (
		id        = flag.Int("id", 0, "slice index in [0, workers)")
		workers   = flag.Int("workers", 3, "cluster width (must match cmd/cluster)")
		router    = flag.String("router", "", "slice feed address (default 127.0.0.1:(4101+id), matching cmd/cluster)")
		uplink    = flag.String("uplink", "127.0.0.1:4200", "coordinator uplink address")
		vessels   = flag.Int("vessels", 300, "fleet size (must match the cluster's world)")
		seed      = flag.Int64("seed", 1, "world/fleet seed")
		areas     = flag.Int("areas", 35, "areas of interest")
		window    = flag.Duration("window", time.Hour, "window range ω")
		slide     = flag.Duration("slide", 10*time.Minute, "window slide β")
		shards    = flag.Int("shards", 1, "mobility-tracker shards within this worker (0 = four per CPU)")
		gridStart = flag.String("grid-start", "", "slide-grid origin (RFC 3339, required for >1 worker; e.g. the stream's first slide boundary)")
		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint directory for crash-safe restart (empty = off)")
		ckptEvery = flag.Int("checkpoint-every", 6, "checkpoint every N slides on the slide grid: at each query time that is a multiple of N × the slide, the same cut on every worker and in serve/recognize")
		pinSeq    = flag.Uint64("pin-seq", 0, "restore exactly this checkpoint sequence (from a cluster manifest restore)")
		deadPeer  = flag.Duration("dead-peer", 10*time.Second, "declare the router dead after this much read silence (0 = never)")
		debug     = flag.String("debug-addr", "", "sidecar listener for /metrics and /debug/pprof (empty = off)")
	)
	flag.Parse()
	log.SetPrefix("worker " + strconv.Itoa(*id) + ": ")

	routerAddr := *router
	if routerAddr == "" {
		routerAddr = "127.0.0.1:" + strconv.Itoa(4101+*id)
	}

	// Every worker regenerates the identical static world from the seed;
	// the slice boundary is the MMSI hash, not the world data.
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = *vessels
	cfg.Seed = *seed
	cfg.NumAreas = *areas
	sim := fleetsim.NewSimulator(cfg)
	vesselsReg, areasReg, ports := core.AdaptWorld(sim)

	var grid time.Time
	if *gridStart != "" {
		var err error
		grid, err = time.Parse(time.RFC3339, *gridStart)
		if err != nil {
			log.Fatalf("-grid-start: %v", err)
		}
	} else if *workers > 1 {
		// Without a shared grid origin the workers batch on different
		// slide grids and the coordinator's barrier never aligns. The
		// fleetsim's grid starts at its config start time.
		grid = cfg.Start.Truncate(*slide)
		log.Printf("no -grid-start; assuming the simulated world's grid origin %s", grid.Format(time.RFC3339))
	}

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		ID:          *id,
		Workers:     *workers,
		Router:      routerAddr,
		Coordinator: *uplink,
		System: core.Config{
			Window:        stream.WindowSpec{Range: *window, Slide: *slide},
			Tracker:       tracker.DefaultParams(),
			Recognition:   maritime.Config{Window: *window},
			TrackerShards: *shards,
		},
		Vessels:         vesselsReg,
		Areas:           areasReg,
		Ports:           ports,
		GridStart:       grid,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		PinSeq:          *pinSeq,
		DeadPeerAfter:   *deadPeer,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *debug != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntime(reg)
		w.System().RegisterMetrics(reg)
		go func() {
			log.Printf("debug on http://%s  (/metrics /debug/pprof)", *debug)
			if err := http.ListenAndServe(*debug, obs.DebugMux(reg)); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	log.Printf("slice %d/%d: feed %s, uplink %s", *id, *workers, routerAddr, *uplink)
	if err := w.Run(ctx); err != nil {
		if ctx.Err() != nil {
			log.Printf("interrupted; checkpointed state resumes on restart")
			return
		}
		log.Fatal(err)
	}
	log.Printf("slice complete: %s", w.System().Health())
}
