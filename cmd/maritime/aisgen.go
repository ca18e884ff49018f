package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/ais"
	"repro/internal/cli"
	"repro/internal/fleetsim"
)

// aisgenCmd generates a synthetic AIS dataset with the fleet simulator:
// a deterministic, Aegean-like positional stream standing in for the
// proprietary dataset of the paper's evaluation. Output is either the
// scanner's CSV format (mmsi,lon,lat,unix) or timestamped NMEA AIVDM
// sentences.
//
//	maritime aisgen -vessels 500 -hours 6 -seed 1 -format csv > fleet.csv
//	maritime aisgen -vessels 100 -hours 2 -format nmea > fleet.nmea
func aisgenCmd(fs *flag.FlagSet, stdout io.Writer) func(context.Context) error {
	world := cli.DefaultWorld()
	world.Vessels = 500
	world.Flags(fs)
	format := fs.String("format", "csv", "output format: csv or nmea")
	truth := fs.String("truth", "", "also write scripted ground truth to this file")
	return func(context.Context) error {
		sim := world.Simulator()
		fixes := sim.Run()
		log.Printf("generated %d fixes from %d vessels over %s", len(fixes), world.Vessels, world.Config().Duration)

		w := bufio.NewWriter(stdout)
		switch *format {
		case "csv":
			for _, f := range fixes {
				if err := ais.WriteFixCSV(w, f); err != nil {
					return err
				}
			}
		case "nmea":
			// Interleave type 5 static/voyage reports roughly every half hour
			// per vessel. Their destination field is deliberately unreliable
			// — blank, stale, or a random port — modelling the paper's
			// observation (§3.2) that the crew-typed voyage data cannot be
			// trusted for trip semantics.
			vrng := rand.New(rand.NewSource(world.Seed + 99))
			specs := make(map[uint32]fleetsim.VesselSpec, len(sim.Fleet()))
			for _, v := range sim.Fleet() {
				specs[v.MMSI] = v
			}
			lastVoyage := make(map[uint32]time.Time)
			for i, f := range fixes {
				if last, ok := lastVoyage[f.MMSI]; !ok || f.Time.Sub(last) >= 30*time.Minute {
					lastVoyage[f.MMSI] = f.Time
					for _, line := range ais.EncodeVoyageSentences(voyageFor(vrng, sim, specs[f.MMSI]), "A", i) {
						fmt.Fprintf(w, "%d %s\n", f.Time.Unix(), line)
					}
				}
				r := &ais.PositionReport{
					Type: ais.TypePositionA, MMSI: f.MMSI,
					Lon: f.Pos.Lon, Lat: f.Pos.Lat,
					UTCSecond: f.Time.Second(),
				}
				lines, err := ais.EncodeSentences(r, "A", i)
				if err != nil {
					return err
				}
				for _, line := range lines {
					fmt.Fprintf(w, "%d %s\n", f.Time.Unix(), line)
				}
			}
		default:
			return fmt.Errorf("unknown format %q (want csv or nmea)", *format)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if *truth == "" {
			return nil
		}
		tf, err := os.Create(*truth)
		if err != nil {
			return err
		}
		defer tf.Close()
		tw := bufio.NewWriter(tf)
		for _, ev := range sim.Truth() {
			fmt.Fprintf(tw, "%s,%d,%s,%d,%d\n", ev.Kind, ev.MMSI, ev.AreaID,
				ev.Start.Unix(), ev.End.Unix())
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		log.Printf("wrote %d ground-truth episodes to %s", len(sim.Truth()), *truth)
		return tf.Close()
	}
}

// shipTypeCode maps the simulator taxonomy onto AIS ship type codes.
func shipTypeCode(t fleetsim.VesselType) int {
	switch t {
	case fleetsim.TypeCargo:
		return 70
	case fleetsim.TypeTanker:
		return 80
	case fleetsim.TypePassenger:
		return 60
	case fleetsim.TypeFishing:
		return 30
	default:
		return 90
	}
}

// voyageFor builds a type 5 report for the vessel. The destination
// field reproduces the unreliability the paper describes: often blank,
// sometimes a wrong port, occasionally mistyped.
func voyageFor(rng *rand.Rand, sim *fleetsim.Simulator, spec fleetsim.VesselSpec) *ais.StaticVoyage {
	v := &ais.StaticVoyage{
		MMSI:     spec.MMSI,
		IMO:      9_000_000 + spec.MMSI%1_000_000,
		CallSign: fmt.Sprintf("SV%04d", spec.MMSI%10000),
		ShipName: strings.ToUpper(spec.Name),
		ShipType: shipTypeCode(spec.Type),
		DraughtM: spec.DraftM,
	}
	ports := sim.World().Ports
	switch r := rng.Float64(); {
	case r < 0.4:
		// Left blank by the crew.
	case r < 0.6:
		// A stale or wrong port.
		v.Destination = strings.ToUpper(ports[rng.Intn(len(ports))].Name)
	default:
		name := strings.ToUpper(ports[rng.Intn(len(ports))].Name)
		if rng.Float64() < 0.3 && len(name) > 4 {
			name = name[:len(name)-2] // the classic truncated entry
		}
		v.Destination = name
	}
	return v
}
