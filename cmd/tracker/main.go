// Command tracker runs online trajectory detection (paper §3) over an
// AIS dataset: it replays the positional stream through a sliding
// window, emits annotated critical points, and reports compression and
// performance statistics. Critical points can be exported as CSV, KML,
// or GeoJSON.
//
// Usage:
//
//	aisgen -vessels 200 -hours 6 | tracker -window 1h -slide 10m -out points.csv
//	tracker -in fleet.csv -kml out.kml
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/ais"
	"repro/internal/export"
	"repro/internal/stream"
	"repro/internal/tracker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracker: ")

	var (
		in      = flag.String("in", "-", "input dataset (CSV or timestamped NMEA), - for stdin")
		window  = flag.Duration("window", time.Hour, "window range ω")
		slide   = flag.Duration("slide", 10*time.Minute, "window slide β")
		turnDeg = flag.Float64("turn", 15, "turn threshold Δθ in degrees")
		outCSV  = flag.String("out", "", "write critical points as CSV to this file (- for stdout)")
		outKML  = flag.String("kml", "", "write critical points as KML to this file")
		outJSON = flag.String("geojson", "", "write critical points as GeoJSON to this file")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = bufio.NewReaderSize(f, 1<<20)
	}

	params := tracker.DefaultParams()
	params.TurnThresholdDeg = *turnDeg
	spec := stream.WindowSpec{Range: *window, Slide: *slide}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	tr := tracker.NewSharded(params, spec, 1)

	scanner := ais.NewScanner(r)
	batcher := stream.NewBatcher(scanner, *slide)

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
		log.Fatal(err)
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
		spec, slides, meanDuration(totalTracking, slides))
	for et, n := range st.ByType {
		log.Printf("  %-12s %d", et, n)
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

	writeOut := func(path string, write func(io.Writer) error) {
		if path == "" {
			return
		}
		var w io.Writer = os.Stdout
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			bw := bufio.NewWriter(f)
			defer bw.Flush()
			w = bw
		}
		if err := write(w); err != nil {
			log.Fatal(err)
		}
	}
	writeOut(*outCSV, func(w io.Writer) error { return export.WriteCSV(w, all) })
	writeOut(*outKML, func(w io.Writer) error { return export.WriteKML(w, "vessel trajectories", all) })
	writeOut(*outJSON, func(w io.Writer) error { return export.WriteGeoJSON(w, all) })
	if *outCSV == "" && *outKML == "" && *outJSON == "" {
		fmt.Fprintln(os.Stderr, "tracker: no output selected; pass -out/-kml/-geojson to export")
	}
}

func meanDuration(total time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
