// benchpipe benchmarks the surveillance pipeline end to end: the
// sharded mobility-tracking tier in isolation (throughput and
// allocation pressure per slide, across shard counts) and the full
// core.System (per-stage latency percentiles). It writes a JSON
// artifact, BENCH_pipeline.json, comparing every configuration against
// the pre-sharding serial baseline embedded below, so a run on any
// machine shows both the scaling curve of this build and the distance
// to the old code.
//
//	go run ./cmd/benchpipe                        # full run, writes BENCH_pipeline.json
//	go run ./cmd/benchpipe -quick -out /dev/null  # CI smoke
//	go run ./cmd/benchpipe -shards 1,2,4,8 -vessels 1000 -hours 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// Pre-sharding serial baseline, measured on this repository immediately
// before the sharded tier and the zero-alloc hot path landed (tracker
// commit parent of the sharding change; fleetsim seed 42, 400 vessels,
// 2 h, ω = 1 h, β = 5 min → 17 898 fixes over 24 slides; single CPU).
// Kept as reference so any later run can report an honest speedup and
// allocation delta against the old code on the same workload shape.
const (
	baselineNsPerSlide     = 825000.0
	baselineAllocsPerSlide = 491.5
	baselineBytesPerSlide  = 115788.0
	baselineVessels        = 400
	baselineHours          = 2
	// The baseline workload's volume, fixed by seed 42: fixes per slide
	// over ns per slide gives the serial baseline's throughput.
	baselineFixes  = 17898
	baselineSlides = 24
)

// baselineFixesPerSec derives the throughput the serial baseline
// sustained — the field was originally recorded as 0 because only
// ns_per_slide was measured, but the workload volume pins it exactly.
const baselineFixesPerSec = (baselineFixes / float64(baselineSlides)) / baselineNsPerSlide * 1e9

// TrackRow is one tracking-tier configuration's measurement.
type TrackRow struct {
	// Mode distinguishes the ingest layout and measurement framing:
	// "row" and "columnar" replay the workload through a fresh tier
	// (cold start included); "columnar-steady" replays it through one
	// warm tier as consecutive stretches of stream time, the regime a
	// long-running deployment sits in.
	Mode           string  `json:"mode"`
	Shards         int     `json:"shards"`
	NsPerSlide     float64 `json:"ns_per_slide"`
	AllocsPerSlide float64 `json:"allocs_per_slide"`
	BytesPerSlide  float64 `json:"bytes_per_slide"`
	FixesPerSec    float64 `json:"fixes_per_sec"`
	// SpeedupVsSerial is this row's throughput over the 1-shard row of
	// the same run; SpeedupVsBaseline is over the embedded pre-sharding
	// constants (only comparable on the baseline workload shape).
	SpeedupVsSerial   float64 `json:"speedup_vs_serial,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// DecodeRow is one scanner-decode configuration's measurement.
type DecodeRow struct {
	Format       string  `json:"format"`  // nmea | csv
	Decoder      string  `json:"decoder"` // zerocopy | legacy
	NsPerFix     float64 `json:"ns_per_fix"`
	AllocsPerFix float64 `json:"allocs_per_fix"`
	MBPerSec     float64 `json:"mb_per_sec"`
}

// StagePercentiles is one pipeline stage's per-slide latency profile.
type StagePercentiles struct {
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

// PipeRow is one full-pipeline configuration's measurement.
type PipeRow struct {
	Shards int                         `json:"shards"`
	Slides int                         `json:"slides"`
	Alerts int                         `json:"alerts"`
	Stages map[string]StagePercentiles `json:"stages"`
}

// Artifact is the benchmark report written to -out.
type Artifact struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	CPUs        int    `json:"cpus"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Quick       bool   `json:"quick,omitempty"`

	Vessels int     `json:"vessels"`
	Hours   float64 `json:"hours"`
	Fixes   int     `json:"fixes"`
	Slides  int     `json:"slides"`

	Baseline TrackRow     `json:"baseline_serial_presharding"`
	Tracking []TrackRow   `json:"tracking"`
	Decode   []DecodeRow  `json:"decode,omitempty"`
	Pipeline []PipeRow    `json:"pipeline"`
	Cluster  []ClusterRow `json:"cluster,omitempty"`

	Notes string `json:"notes"`
}

func main() {
	vessels := flag.Int("vessels", baselineVessels, "fleet size")
	hours := flag.Float64("hours", baselineHours, "simulated duration in hours")
	shardsCSV := flag.String("shards", "", "comma-separated shard counts (default 1,2,4 and GOMAXPROCS)")
	reps := flag.Int("reps", 20, "tracking-tier repetitions per shard count")
	clusterCSV := flag.String("cluster", "1,3", "comma-separated cluster widths for the distributed-tier rows (empty = skip)")
	quick := flag.Bool("quick", false, "small CI smoke run (overrides vessels/hours/reps)")
	out := flag.String("out", "BENCH_pipeline.json", "artifact path")
	flag.Parse()

	if *quick {
		*vessels, *hours, *reps = 120, 1, 3
		if *clusterCSV == "1,3" {
			*clusterCSV = "2"
		}
	}
	shardCounts := parseShards(*shardsCSV, *quick)

	log.Printf("simulating %d vessels for %.1f h ...", *vessels, *hours)
	simCfg := fleetsim.DefaultConfig()
	simCfg.Seed = 42
	simCfg.Vessels = *vessels
	simCfg.Duration = time.Duration(float64(time.Hour) * *hours)
	sim := fleetsim.NewSimulator(simCfg)
	fixes := sim.Run()
	batches := batchAll(fixes, 5*time.Minute)
	log.Printf("%d fixes over %d slides", len(fixes), len(batches))

	art := &Artifact{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       *quick,
		Vessels:     *vessels,
		Hours:       *hours,
		Fixes:       len(fixes),
		Slides:      len(batches),
		Baseline: TrackRow{
			Mode:           "row",
			Shards:         1,
			NsPerSlide:     baselineNsPerSlide,
			AllocsPerSlide: baselineAllocsPerSlide,
			BytesPerSlide:  baselineBytesPerSlide,
			FixesPerSec:    baselineFixesPerSec,
		},
		Notes: "baseline_serial_presharding was measured before the sharded tier " +
			"and hot-path allocation work, on the default workload (400 vessels, 2 h, 1 CPU); " +
			"its fixes_per_sec is derived from ns_per_slide and the workload volume. " +
			"Tracking-row timings are the median over -reps repetitions (robust to scheduler " +
			"interference on shared boxes); allocation columns are means, alloc counts being " +
			"deterministic. " +
			"speedup_vs_baseline is meaningful only on that workload shape. " +
			"Multi-shard speedup requires gomaxprocs > 1. " +
			"row/columnar tracking rows include tier cold start; columnar-steady rows replay " +
			"through one warm tier and measure the long-running steady state. " +
			"The tracker keeps bit-identical IEEE-754 geodesic math across the row, columnar, " +
			"sharded, and snapshot-restore paths (the equivalence goldens pin it), which bounds " +
			"the per-core multiple below the 5x target on this box: the per-fix floor is " +
			"trig-dominated (two half-angle sines, one Sincos, two atan-family calls) plus one " +
			"vessel-map probe, and the best recorded multiple is the columnar-steady row's.",
	}

	// Tracking tier in isolation: row and columnar layouts through a
	// fresh tier, then the steady-state framing through a warm one.
	cols := toColumnarBatches(batches)
	span := time.Duration(float64(time.Hour) * *hours)
	var serialNs float64
	for _, n := range shardCounts {
		for _, mode := range []string{"row", "columnar", "columnar-steady"} {
			var row TrackRow
			switch mode {
			case "row":
				row = benchTracking(batches, len(fixes), n, *reps)
			case "columnar":
				row = benchTracking(cols, len(fixes), n, *reps)
			case "columnar-steady":
				row = benchSteadyTracking(cols, len(fixes), n, *reps, span)
			}
			row.Mode = mode
			if n == 1 && mode == "row" {
				serialNs = row.NsPerSlide
			}
			if serialNs > 0 {
				row.SpeedupVsSerial = serialNs / row.NsPerSlide
			}
			if *vessels == baselineVessels && *hours == baselineHours {
				row.SpeedupVsBaseline = baselineNsPerSlide / row.NsPerSlide
			}
			log.Printf("tracking %s shards=%d: %.0f ns/slide, %.1f allocs/slide, %.2fx vs baseline",
				mode, n, row.NsPerSlide, row.AllocsPerSlide, row.SpeedupVsBaseline)
			art.Tracking = append(art.Tracking, row)
		}
	}

	// Scanner decode micro-benchmark: zero-copy fast path vs the legacy
	// string-based oracle, per input format.
	art.Decode = benchDecodeAll(*quick)
	for _, d := range art.Decode {
		log.Printf("decode %s/%s: %.1f ns/fix, %.2f allocs/fix, %.1f MB/s",
			d.Format, d.Decoder, d.NsPerFix, d.AllocsPerFix, d.MBPerSec)
	}

	// Full pipeline with per-stage percentiles.
	world := fleetsim.NewSimulator(simCfg) // fresh simulator: AdaptWorld reads its areas
	world.Run()
	for _, n := range shardCounts {
		row := benchPipeline(world, batches, n)
		log.Printf("pipeline shards=%d: tracking p95 %.0f µs, recognition p95 %.0f µs, %d alerts",
			n, row.Stages["tracking"].P95Us, row.Stages["recognition"].P95Us, row.Alerts)
		art.Pipeline = append(art.Pipeline, row)
	}

	// Distributed tiers: router + workers + coordinator over loopback
	// TCP, against the single-process reference on the same stream. On a
	// one-box run this prices the wire hops and the merge barrier; real
	// scaling needs the workers on their own machines/CPUs.
	if widths := parseWidths(*clusterCSV); len(widths) > 0 {
		art.Cluster = benchClusterAll(simCfg, fixes, widths)
		art.Notes += " Cluster rows run every tier in one process over loopback; " +
			"workers=0 is the single-process reference, overhead_vs_single prices the wire + merge barrier on this box."
	}

	if err := writeArtifact(*out, art); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// parseShards resolves the shard counts to benchmark, deduplicated and
// ascending. The default covers the serial reference, small counts and
// the machine's width.
func parseShards(csv string, quick bool) []int {
	var counts []int
	if csv == "" {
		counts = []int{1, 2, 4, runtime.GOMAXPROCS(0)}
		if quick {
			counts = []int{1, 2}
		}
	} else {
		for _, s := range strings.Split(csv, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 0 {
				log.Fatalf("bad -shards entry %q", s)
			}
			if n == 0 {
				n = tracker.DefaultShards()
			}
			counts = append(counts, n)
		}
	}
	slices.Sort(counts)
	return slices.Compact(counts)
}

// batchAll slices the stream into window slides once; all benchmark
// runs replay the same batches.
func batchAll(fixes []ais.Fix, slide time.Duration) []stream.Batch {
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), slide)
	var batches []stream.Batch
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		batches = append(batches, b)
	}
	return batches
}

// medianDur returns the median of the given durations. Per-rep medians
// are the timing estimator everywhere in this artifact: on a shared box
// a scheduler interference spike inflates a mean arbitrarily, while the
// median tracks the undisturbed repetitions.
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// benchTracking replays the batches through a fresh sharded tier reps
// times and reports per-slide cost (median over reps) and allocation
// pressure (mean — alloc counts are deterministic, timing is not).
func benchTracking(batches []stream.Batch, fixes, shards, reps int) TrackRow {
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	params := tracker.DefaultParams()

	run := func() {
		tr := tracker.NewSharded(params, window, shards)
		for _, b := range batches {
			tr.Slide(b)
		}
		tr.Close()
	}
	run() // warmup

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	durs := make([]time.Duration, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		run()
		durs[r] = time.Since(start)
	}
	runtime.ReadMemStats(&m1)

	med := medianDur(durs)
	slides := reps * len(batches)
	return TrackRow{
		Shards:         shards,
		NsPerSlide:     float64(med.Nanoseconds()) / float64(len(batches)),
		AllocsPerSlide: float64(m1.Mallocs-m0.Mallocs) / float64(slides),
		BytesPerSlide:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(slides),
		FixesPerSec:    float64(fixes) / med.Seconds(),
	}
}

// toColumnarBatches restages row batches into struct-of-arrays form,
// one FixBatch per slide, preserving query times.
func toColumnarBatches(batches []stream.Batch) []stream.Batch {
	out := make([]stream.Batch, len(batches))
	for i, b := range batches {
		fb := &ais.FixBatch{}
		fb.Grow(len(b.Fixes))
		for _, f := range b.Fixes {
			fb.Append(f)
		}
		out[i] = stream.Batch{Cols: fb, Query: b.Query}
	}
	return out
}

// benchSteadyTracking measures the warm steady state: one tier, fleet
// and window populated by a warm-up pass, then each rep replays the
// workload as the next stretch of stream time (every timestamp advanced
// by the workload span). Cold-start costs — vessel-map growth,
// per-vessel allocation, slice warm-up — are excluded by construction.
func benchSteadyTracking(src []stream.Batch, fixes, shards, reps int, span time.Duration) TrackRow {
	// Deep-copy the columnar batches: the replay advances timestamps in
	// place and must not disturb the other rows' input.
	batches := make([]stream.Batch, len(src))
	for i, b := range src {
		fb := &ais.FixBatch{
			MMSI:   append([]uint32(nil), b.Cols.MMSI...),
			Lon:    append([]float64(nil), b.Cols.Lon...),
			Lat:    append([]float64(nil), b.Cols.Lat...),
			TimeNS: append([]int64(nil), b.Cols.TimeNS...),
		}
		batches[i] = stream.Batch{Cols: fb, Query: b.Query}
	}
	shift := func() {
		for i := range batches {
			batches[i].Query = batches[i].Query.Add(span)
			for j, ns := range batches[i].Cols.TimeNS {
				batches[i].Cols.TimeNS[j] = ns + int64(span)
			}
		}
	}

	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	tr := tracker.NewSharded(tracker.DefaultParams(), window, shards)
	defer tr.Close()
	for _, b := range batches { // warm-up pass populates the tier
		tr.Slide(b)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	durs := make([]time.Duration, reps)
	for r := 0; r < reps; r++ {
		shift()
		start := time.Now()
		for _, b := range batches {
			tr.Slide(b)
		}
		durs[r] = time.Since(start)
	}
	runtime.ReadMemStats(&m1)

	med := medianDur(durs)
	slides := reps * len(batches)
	return TrackRow{
		Shards:         shards,
		NsPerSlide:     float64(med.Nanoseconds()) / float64(len(batches)),
		AllocsPerSlide: float64(m1.Mallocs-m0.Mallocs) / float64(slides),
		BytesPerSlide:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(slides),
		FixesPerSec:    float64(fixes) / med.Seconds(),
	}
}

// benchDecodeAll measures the Data Scanner's decode cost per fix for
// both input formats and both decoders over a synthetic corpus.
func benchDecodeAll(quick bool) []DecodeRow {
	lines := 20000
	passes := 20
	if quick {
		lines, passes = 4000, 5
	}
	var nmea, csv strings.Builder
	for i := 0; i < lines; i++ {
		r := &ais.PositionReport{Type: ais.TypePositionA, MMSI: uint32(237000000 + i%500),
			Lon: 20.0 + float64(i%800)/100, Lat: 34.0 + float64(i%600)/100,
			SpeedKnots: float64(i % 25)}
		enc, err := ais.EncodeSentences(r, "A", i)
		if err != nil {
			log.Fatalf("encode: %v", err)
		}
		fmt.Fprintf(&nmea, "%d %s\n", 1243814400+i, enc[0])
		fmt.Fprintf(&csv, "%d,%.6f,%.6f,%d\n", 237000000+i%500, 20.0+float64(i%800)/100,
			34.0+float64(i%600)/100, 1243814400+i)
	}

	var rows []DecodeRow
	for _, format := range []string{"nmea", "csv"} {
		input := nmea.String()
		if format == "csv" {
			input = csv.String()
		}
		for _, decoder := range []string{"zerocopy", "legacy"} {
			run := func() {
				sc := ais.NewScanner(strings.NewReader(input))
				sc.SetLegacyDecode(decoder == "legacy")
				n := 0
				for sc.Scan() {
					n++
				}
				if n != lines {
					log.Fatalf("decode %s/%s: %d fixes, want %d", format, decoder, n, lines)
				}
			}
			run() // warmup
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			for p := 0; p < passes; p++ {
				run()
			}
			dur := time.Since(start)
			runtime.ReadMemStats(&m1)
			total := passes * lines
			rows = append(rows, DecodeRow{
				Format:       format,
				Decoder:      decoder,
				NsPerFix:     float64(dur.Nanoseconds()) / float64(total),
				AllocsPerFix: float64(m1.Mallocs-m0.Mallocs) / float64(total),
				MBPerSec:     float64(passes) * float64(len(input)) / 1e6 / dur.Seconds(),
			})
		}
	}
	return rows
}

// benchPipeline runs the full system once and distills per-stage
// latency percentiles from the slide reports.
func benchPipeline(sim *fleetsim.Simulator, batches []stream.Batch, shards int) PipeRow {
	vessels, areas, ports := core.AdaptWorld(sim)
	sys := core.NewSystem(core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute},
		Tracker:       tracker.DefaultParams(),
		Recognition:   maritime.Config{Window: time.Hour},
		TrackerShards: shards,
	}, vessels, areas, ports)
	defer sys.Close()

	byStage := map[string][]time.Duration{}
	row := PipeRow{Shards: shards, Slides: len(batches), Stages: map[string]StagePercentiles{}}
	for _, b := range batches {
		rep := sys.ProcessBatch(b)
		row.Alerts += len(rep.Alerts)
		byStage["tracking"] = append(byStage["tracking"], rep.Timings.Tracking)
		byStage["staging"] = append(byStage["staging"], rep.Timings.Staging)
		byStage["reconstruction"] = append(byStage["reconstruction"], rep.Timings.Reconstruction)
		byStage["loading"] = append(byStage["loading"], rep.Timings.Loading)
		byStage["recognition"] = append(byStage["recognition"], rep.Timings.Recognition)
		byStage["total"] = append(byStage["total"], rep.Timings.Wall)
	}
	for stage, ds := range byStage {
		row.Stages[stage] = percentiles(ds)
	}
	return row
}

// percentiles distills a latency sample into the artifact's profile.
func percentiles(ds []time.Duration) StagePercentiles {
	slices.Sort(ds)
	at := func(q float64) float64 {
		i := int(q * float64(len(ds)-1))
		return float64(ds[i].Nanoseconds()) / 1e3
	}
	return StagePercentiles{
		P50Us: at(0.50), P95Us: at(0.95), P99Us: at(0.99), MaxUs: at(1.0),
	}
}

// writeArtifact marshals the report.
func writeArtifact(path string, art *Artifact) error {
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
