package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"strconv"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/core"
)

// workerCmd runs one vessel slice of a distributed recognition cluster
// (see clusterCmd): it consumes its slice feed from the router through
// the reconnecting client, runs mobility tracking and trajectory
// archival for its vessels, checkpoints autonomously, and ships every
// slide's critical points to the coordinator, where the merged stream is
// recognized. Recognition is disabled here by construction — several
// maritime CEs aggregate across vessels, so only the coordinator sees
// enough of the fleet to decide them.
//
//	maritime worker -id 0 -workers 3 -vessels 300
//	maritime worker -id 1 -workers 3 -vessels 300 -checkpoint-dir /var/lib/w1
//
// The world flags (-vessels -seed -areas -window -slide) must match the
// cluster process exactly; the coordinator rejects a Hello with a
// mismatched width. After a crash, restarting with the same
// -checkpoint-dir resumes from the newest checkpoint and RESUMEs the
// slice feed, so the coordinator sees each slide exactly once. After a
// whole-cluster restore, pass the -pin-seq the cluster process logged so
// every worker rejoins on the same manifest generation.
func workerCmd(fs *flag.FlagSet, _ io.Writer) func(context.Context) error {
	// Every worker regenerates the identical static world from the seed;
	// the slice boundary is the MMSI hash, not the world data.
	world := cli.DefaultWorld()
	world.Hours = 0
	world.Flags(fs)
	p := cli.DefaultPipeline()
	p.Shards = 1
	p.Flags(fs, "window", "slide", "shards", "checkpoint-dir", "checkpoint-every")
	debug := cli.DebugFlag(fs)
	var (
		id        = fs.Int("id", 0, "slice index in [0, workers)")
		workers   = fs.Int("workers", 3, "cluster width (must match the cluster's)")
		router    = fs.String("router", "", "slice feed address (empty: 127.0.0.1:(4101+id), the cluster's default)")
		uplink    = fs.String("uplink", "127.0.0.1:4200", "coordinator uplink address")
		gridStart = fs.String("grid-start", "", "slide-grid origin (RFC 3339, required for >1 worker; e.g. the stream's first slide boundary)")
		pinSeq    = fs.Uint64("pin-seq", 0, "restore exactly this checkpoint sequence (from a cluster manifest restore)")
		deadPeer  = fs.Duration("dead-peer", 10*time.Second, "declare the router dead after this much read silence (0 = never)")
	)
	return func(ctx context.Context) error {
		log.SetPrefix("worker " + strconv.Itoa(*id) + ": ")
		routerAddr := *router
		if routerAddr == "" {
			routerAddr = "127.0.0.1:" + strconv.Itoa(4101+*id)
		}
		vesselsReg, areasReg, ports := core.AdaptWorld(world.Simulator())

		var grid time.Time
		if *gridStart != "" {
			var err error
			if grid, err = time.Parse(time.RFC3339, *gridStart); err != nil {
				return fmt.Errorf("-grid-start: %w", err)
			}
		} else if *workers > 1 {
			// Without a shared grid origin the workers batch on different
			// slide grids and the coordinator's barrier never aligns. The
			// fleetsim's grid starts at its config start time.
			grid = world.Config().Start.Truncate(p.Slide)
			log.Printf("no -grid-start; assuming the simulated world's grid origin %s", grid.Format(time.RFC3339))
		}

		w, err := cluster.NewWorker(cluster.WorkerConfig{
			ID:              *id,
			Workers:         *workers,
			Router:          routerAddr,
			Coordinator:     *uplink,
			System:          p.Config(),
			Vessels:         vesselsReg,
			Areas:           areasReg,
			Ports:           ports,
			GridStart:       grid,
			CheckpointDir:   p.CheckpointDir,
			CheckpointEvery: p.CheckpointEvery,
			PinSeq:          *pinSeq,
			DeadPeerAfter:   *deadPeer,
			Logf:            log.Printf,
		})
		if err != nil {
			return err
		}
		reg := cli.Registry()
		w.System().RegisterMetrics(reg)
		cli.ServeDebug(*debug, reg)

		ctx, cancel := cli.SignalContext(ctx)
		defer cancel()
		log.Printf("slice %d/%d: feed %s, uplink %s", *id, *workers, routerAddr, *uplink)
		if err := w.Run(ctx); err != nil {
			if ctx.Err() != nil {
				log.Printf("interrupted; checkpointed state resumes on restart")
				return nil
			}
			return err
		}
		log.Printf("slice complete: %s", w.System().Health())
		return nil
	}
}
