package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/ais"
	"repro/internal/cli"
	"repro/internal/export"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// trackerCmd runs online trajectory detection (paper §3) over an AIS
// dataset: it replays the positional stream through a sliding window,
// emits annotated critical points, and reports compression and
// performance statistics. Critical points can be exported as CSV, KML,
// or GeoJSON.
//
//	maritime aisgen -vessels 200 -hours 6 | maritime tracker -window 1h -slide 10m -out points.csv
//	maritime tracker -in fleet.csv -kml out.kml
func trackerCmd(fs *flag.FlagSet, stdout io.Writer) func(context.Context) error {
	p := cli.DefaultPipeline()
	p.Flags(fs, "window", "slide")
	var (
		in      = fs.String("in", "-", "input dataset (CSV or timestamped NMEA), - for stdin")
		turnDeg = fs.Float64("turn", 15, "turn threshold Δθ in degrees")
		outCSV  = fs.String("out", "", "write critical points as CSV to this file (- for stdout)")
		outKML  = fs.String("kml", "", "write critical points as KML to this file")
		outJSON = fs.String("geojson", "", "write critical points as GeoJSON to this file")
	)
	return func(context.Context) error {
		var r io.Reader = os.Stdin
		if *in != "-" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = bufio.NewReaderSize(f, 1<<20)
		}

		params := tracker.DefaultParams()
		params.TurnThresholdDeg = *turnDeg
		spec := stream.WindowSpec{Range: p.Window, Slide: p.Slide}
		if err := spec.Validate(); err != nil {
			return err
		}
		tr := tracker.NewSharded(params, spec, 1)

		scanner := ais.NewScanner(r)
		batcher := stream.NewBatcher(scanner, spec.Slide)

		var all []tracker.CriticalPoint
		slides := 0
		var totalTracking time.Duration
		for {
			b, ok := batcher.Next()
			if !ok {
				break
			}
			t0 := time.Now()
			res := tr.Slide(b)
			totalTracking += time.Since(t0)
			slides++
			all = append(all, res.Fresh...)
		}
		if err := scanner.Err(); err != nil {
			return err
		}

		st := tr.Stats()
		sc := scanner.Stats()
		log.Printf("input: %d lines, %d fixes (%d dropped by scanner)", sc.Lines, sc.Fixes, sc.Dropped())
		if sc.VoyageReports > 0 {
			log.Printf("collected %d static/voyage reports for %d vessels (declared destinations are untrusted, paper §3.2)",
				sc.VoyageReports, len(scanner.Voyages()))
		}
		log.Printf("tracked: %d fixes → %d critical points (compression %.1f%%), %d outliers rejected",
			st.FixesIn, st.Critical, st.CompressionRatio()*100, st.Outliers)
		log.Printf("window %s: %d slides, mean tracking cost %s/slide",
			spec, slides, totalTracking/time.Duration(max(1, slides)))
		for et := tracker.EventFirst; et <= tracker.EventSlowEnd; et++ {
			if n := st.ByType[et]; n > 0 {
				log.Printf("  %-12s %d", et, n)
			}
		}
		// The §3.1 odometer extension: traveled distance per vessel.
		var farthest uint32
		var farthestM float64
		for _, cp := range all {
			if total, _, ok := tr.Odometer(cp.MMSI); ok && total > farthestM {
				farthest, farthestM = cp.MMSI, total
			}
		}
		if farthestM > 0 {
			log.Printf("farthest still-tracked vessel: %d at %.1f km traveled", farthest, farthestM/1000)
		}

		if *outCSV == "" && *outKML == "" && *outJSON == "" {
			log.Print("no output selected; pass -out/-kml/-geojson to export")
		}
		return errors.Join(
			writeFile(*outCSV, stdout, func(w io.Writer) error { return export.WriteCSV(w, all) }),
			writeFile(*outKML, stdout, func(w io.Writer) error { return export.WriteKML(w, "vessel trajectories", all) }),
			writeFile(*outJSON, stdout, func(w io.Writer) error { return export.WriteGeoJSON(w, all) }))
	}
}

// writeFile runs write into the file at path, into stdout for "-", or
// not at all for "".
func writeFile(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
