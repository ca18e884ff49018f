// Command maritime is the toolbox around the surveillance pipeline
// (paper Figure 1), one subcommand per tool; the alert gateway is
// cmd/serve. The world flags (-vessels -seed -areas -hours) regenerate
// the same simulated world in every subcommand, so a feed and each of
// its consumers must be given the same ones.
//
//	maritime aisgen -vessels 500 -hours 6 > fleet.csv
//	maritime tracker -in fleet.csv -kml fleet.kml
//	maritime recognize -vessels 300 -hours 6
//	maritime feed -addr :4001 -speedup 600 &
//	maritime recognize -feed 127.0.0.1:4001
//	maritime analytics -vessels 400 -hours 24
//	maritime cluster -workers 3 -vessels 300 -hours 3 &
//	maritime worker -id 0 -workers 3 -vessels 300 &
//	maritime serveload -url http://127.0.0.1:8080 -subs 5000
//	maritime experiments -list
//
// `maritime <subcommand> -h` lists a subcommand's flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
)

// A command is one subcommand. flags registers its flags on fs and
// returns the function that runs it once fs is parsed, until it is done
// or ctx ends, writing its results to stdout and its progress to the
// log.
type command struct {
	name, about string
	flags       func(fs *flag.FlagSet, stdout io.Writer) func(ctx context.Context) error
}

var commands = []command{
	{"aisgen", "generate a synthetic AIS dataset (CSV or NMEA AIVDM)", aisgenCmd},
	{"tracker", "online trajectory detection over a dataset: critical points, KML/GeoJSON/CSV export", trackerCmd},
	{"recognize", "the full pipeline over a file, a simulation or a live feed, printing recognized CEs", recognizeCmd},
	{"feed", "serve the simulated fleet as a live NMEA feed over TCP, optionally through a fault proxy", feedCmd},
	{"analytics", "the offline §3.3 analytics over the trip store: Table 4, corridors, clusters, snapshots", analyticsCmd},
	{"cluster", "router, coordinator and HTTP gateway of a distributed recognition cluster", clusterCmd},
	{"worker", "one vessel slice of a distributed recognition cluster", workerCmd},
	{"serveload", "SSE fan-out load harness against running gateways", serveloadCmd},
	{"experiments", "regenerate the tables and figures of the paper's evaluation", experimentsCmd},
}

// lookup returns the subcommand called name.
func lookup(name string) (command, bool) {
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	if i < 0 {
		return command{}, false
	}
	return commands[i], true
}

func main() {
	log.SetFlags(0)
	var c command
	if len(os.Args) > 1 {
		c, _ = lookup(os.Args[1])
	}
	if c.flags == nil {
		fmt.Fprintln(os.Stderr, "usage: maritime <subcommand> [flags]; maritime <subcommand> -h lists its flags")
		for _, c := range commands {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", c.name, c.about)
		}
		os.Exit(2)
	}
	log.SetPrefix(c.name + ": ")
	fs := flag.NewFlagSet("maritime "+c.name, flag.ExitOnError)
	run := c.flags(fs, os.Stdout)
	_ = fs.Parse(os.Args[2:]) // ExitOnError: a bad flag exits here
	if err := run(context.Background()); err != nil {
		log.Fatal(err)
	}
}
