package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mod"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// analyticsCmd demonstrates the offline trajectory analytics of the
// paper's §3.3: it runs the pipeline over a simulated fleet to populate
// the moving-object store, then prints travel statistics,
// origin–destination matrices, frequent routes ("corridors"),
// spatiotemporal trip clusters, idle periods at dock, and per-period
// aggregates. Optionally the store is persisted to (or restored from) a
// snapshot file, exercising the paper's disk-backed archive.
//
//	maritime analytics -vessels 400 -hours 24
//	maritime analytics -vessels 400 -hours 24 -save mod.snapshot
//	maritime analytics -load mod.snapshot
func analyticsCmd(fs *flag.FlagSet, stdout io.Writer) func(context.Context) error {
	world := cli.World{Vessels: 400, Seed: 1, Areas: 35, Hours: 24}
	world.Flags(fs)
	var (
		save = fs.String("save", "", "persist the store to this snapshot file")
		load = fs.String("load", "", "restore the store from this snapshot file instead of simulating")
		k    = fs.Int("clusters", 4, "trip clusters to compute")
	)
	return func(context.Context) error {
		sim := world.Simulator()
		_, _, ports := core.AdaptWorld(sim)

		var store *mod.MOD
		if *load != "" {
			store = mod.New(ports)
			f, err := os.Open(*load)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := store.RestoreSnapshot(f); err != nil {
				return err
			}
			log.Printf("restored %d trips (%d points staged) from %s",
				len(store.Trips()), store.StagedCount(), *load)
		} else {
			log.Printf("simulating %d vessels for %s ...", world.Vessels, world.Config().Duration)
			sys := core.NewSystem(core.Config{
				Window:             stream.WindowSpec{Range: 6 * time.Hour, Slide: time.Hour},
				Tracker:            tracker.DefaultParams(),
				DisableRecognition: true,
			}, nil, nil, ports)
			sys.RunAll(stream.NewBatcher(stream.NewSliceSource(sim.Run()), time.Hour))
			store = sys.Store()
		}

		writeReport(stdout, store, *k, world.Seed)
		if *save == "" {
			return nil
		}
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := store.SaveSnapshot(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("saved snapshot to %s", *save)
		return nil
	}
}

// writeReport prints the store's §3.3 analytics, with k trip clusters
// drawn from seed.
func writeReport(w io.Writer, store *mod.MOD, k int, seed int64) {
	fmt.Fprintln(w, "=== Table 4 statistics ===")
	store.Table4Stats().Write(w)

	fmt.Fprintln(w, "\n=== Frequent routes (corridors) ===")
	for i, r := range store.FrequentRoutes(2) {
		if i >= 8 {
			break
		}
		origin := r.Pair.Origin
		if origin == "" {
			origin = "?"
		}
		fmt.Fprintf(w, "  %-14s → %-14s %d trips\n", origin, r.Pair.Dest, r.Count)
	}

	fmt.Fprintln(w, "\n=== Busiest vessels ===")
	stats := store.VesselStats()
	printed := 0
	for _, t := range store.Trips() {
		s := stats[t.MMSI]
		if s.Trips < 3 || printed >= 5 {
			continue
		}
		delete(stats, t.MMSI)
		fmt.Fprintf(w, "  %d: %d trips, %.0f km, %s at sea, ports %v\n",
			s.MMSI, s.Trips, s.DistanceMeters/1000, s.TravelTime.Round(time.Minute), s.VisitedPorts)
		printed++
	}

	fmt.Fprintln(w, "\n=== Idle periods at dock ===")
	idles := store.IdlePeriods()
	fmt.Fprintf(w, "  %d docked intervals", len(idles))
	if len(idles) > 0 {
		var total time.Duration
		for _, p := range idles {
			total += p.Duration()
		}
		fmt.Fprintf(w, ", mean %s", (total / time.Duration(len(idles))).Round(time.Minute))
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "\n=== Trips per day ===")
	for _, p := range store.AggregateTrips(mod.ByDay) {
		fmt.Fprintf(w, "  %s: %d trips by %d vessels, %.0f km total\n",
			p.Period.Format("2006-01-02"), p.Trips, p.Vessels, p.DistanceMeters/1000)
	}

	fmt.Fprintln(w, "\n=== Vessels traveling together ===")
	pairs := store.TravelingTogether(1500, time.Hour)
	if len(pairs) == 0 {
		fmt.Fprintln(w, "  none detected")
	}
	for i, c := range pairs {
		if i >= 5 {
			break
		}
		fmt.Fprintf(w, "  %d & %d for %s (max separation %.0f m)\n",
			c.A.MMSI, c.B.MMSI, c.Overlap().Round(time.Minute), c.MaxDist)
	}

	if trips := store.Trips(); len(trips) >= k {
		fmt.Fprintf(w, "\n=== Spatiotemporal clusters (k=%d) ===\n", k)
		clusters := mod.TripClusters(trips, mod.ClusterOptions{
			K: k, TemporalWeight: 10, Seed: seed,
		})
		for i, c := range clusters {
			fmt.Fprintf(w, "  cluster %d: %d trips around %s (departs ~%s)\n",
				i+1, len(c.Trips), c.Medoid, c.Medoid.Start.Format("15:04"))
		}
	}

}
