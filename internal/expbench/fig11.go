package expbench

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/maritime"
	"repro/internal/rtec"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// Fig11Row is one point of the paper's Figure 11: the average CE
// recognition time per query step for a window range ω, using one or
// two processors, with or without precomputed spatial facts.
type Fig11Row struct {
	Window    time.Duration // ω
	Procs     int           // 1 or 2 recognizers in parallel
	Mode      maritime.Mode
	Steps     int           // query steps measured
	MeanMEs   int           // mean movement events in working memory
	MeanFacts int           // mean spatial facts per slide (SF mode)
	MeanCEs   int           // mean CE instances recognized per step
	MeanStep  time.Duration // mean recognition time per query step
}

// CriticalSlides precomputes the workload's critical-point stream under
// the given window, one slice per slide with the slide's query time —
// what recognition and the pairwise analytics tier consume.
func CriticalSlides(wl *Workload, spec stream.WindowSpec) (slides [][]tracker.CriticalPoint, queries []time.Time) {
	tr := tracker.NewSharded(tracker.DefaultParams(), spec, 1)
	batcher := stream.NewBatcher(stream.NewSliceSource(wl.Fixes), spec.Slide)
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		// Slide's result is scratch, valid until the next slide.
		slides = append(slides, slices.Clone(tr.Slide(b).Fresh))
		queries = append(queries, b.Query)
	}
	return slides, queries
}

// MESlides precomputes the movement-event stream of the workload,
// bucketed into slides of the given step β, with each slide's query
// time. Every Figure 11 configuration shares the β = 1 h stream.
func MESlides(wl *Workload, slide time.Duration) (slides [][]rtec.Event, queries []time.Time) {
	points, queries := CriticalSlides(wl, stream.WindowSpec{Range: 2 * slide, Slide: slide})
	for _, fresh := range points {
		slides = append(slides, maritime.MEStream(fresh))
	}
	return slides, queries
}

// fig11Config is one recognition configuration to measure.
type fig11Config struct {
	window time.Duration
	procs  int
	mode   maritime.Mode
}

// runFig11 measures one configuration over the precomputed slides.
func runFig11(wl *Workload, cfg fig11Config, slides [][]rtec.Event, queries []time.Time) Fig11Row {
	row := Fig11Row{Window: cfg.window, Procs: cfg.procs, Mode: cfg.mode}
	mcfg := maritime.Config{Window: cfg.window, Mode: cfg.mode}

	var factGen *maritime.FactGenerator
	if cfg.mode == maritime.SpatialFacts {
		factGen = maritime.NewFactGenerator(wl.Areas, 3000)
	}

	var totalStep time.Duration
	var totalMEs, totalCEs, totalFacts int

	switch cfg.procs {
	case 1:
		rec := maritime.NewRecognizer(mcfg, wl.Vessels, wl.Areas)
		for i, events := range slides {
			var facts []maritime.SpatialFact
			if factGen != nil {
				facts = factGen.Facts(events)
				totalFacts += len(facts)
			}
			t0 := time.Now()
			snap := rec.Advance(queries[i], events, facts)
			totalStep += time.Since(t0)
			totalMEs += rec.Engine().WorkingMemorySize()
			totalCEs += snap.Recognized
			row.Steps++
		}
	case 2:
		median := wl.Sim.World().MedianLon()
		westAreas, eastAreas := maritime.PartitionAreas(wl.Areas, median)
		west := maritime.NewRecognizer(mcfg, wl.Vessels, westAreas)
		east := maritime.NewRecognizer(mcfg, wl.Vessels, eastAreas)
		for i, events := range slides {
			we, ee := maritime.PartitionEvents(events, median)
			var wf, ef []maritime.SpatialFact
			if factGen != nil {
				facts := factGen.Facts(events)
				totalFacts += len(facts)
				wf, ef = maritime.PartitionFacts(facts, westAreas)
			}
			var snapW, snapE maritime.Snapshot
			t0 := time.Now()
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); snapW = west.Advance(queries[i], we, wf) }()
			go func() { defer wg.Done(); snapE = east.Advance(queries[i], ee, ef) }()
			wg.Wait()
			totalStep += time.Since(t0)
			totalMEs += west.Engine().WorkingMemorySize() + east.Engine().WorkingMemorySize()
			totalCEs += snapW.Recognized + snapE.Recognized
			row.Steps++
		}
	default:
		panic("expbench: unsupported processor count")
	}

	if row.Steps > 0 {
		row.MeanStep = totalStep / time.Duration(row.Steps)
		row.MeanMEs = totalMEs / row.Steps
		row.MeanCEs = totalCEs / row.Steps
		row.MeanFacts = totalFacts / row.Steps
	}
	return row
}

// Fig11a reproduces Figure 11(a): recognition over critical movement
// events with on-demand spatial reasoning, ω ∈ {1, 2, 6, 9} h with
// β = 1 h, on one and two processors. The paper's shapes: time grows
// with ω, and two processors are markedly faster than one.
func Fig11a(wl *Workload) []Fig11Row {
	slides, queries := MESlides(wl, time.Hour)
	var rows []Fig11Row
	for _, procs := range []int{1, 2} {
		for _, h := range []int{1, 2, 6, 9} {
			rows = append(rows, runFig11(wl, fig11Config{
				window: time.Duration(h) * time.Hour,
				procs:  procs,
				mode:   maritime.SpatialOnDemand,
			}, slides, queries))
		}
	}
	return rows
}

// Fig11b reproduces Figure 11(b): the same sweep with the input
// augmented by precomputed spatial facts and the definitions consuming
// them instead of reasoning spatially. The paper's shape: despite the
// larger input, recognition is substantially faster than Figure 11(a).
func Fig11b(wl *Workload) []Fig11Row {
	slides, queries := MESlides(wl, time.Hour)
	var rows []Fig11Row
	for _, procs := range []int{1, 2} {
		for _, h := range []int{1, 2, 6, 9} {
			rows = append(rows, runFig11(wl, fig11Config{
				window: time.Duration(h) * time.Hour,
				procs:  procs,
				mode:   maritime.SpatialFacts,
			}, slides, queries))
		}
	}
	return rows
}

// WriteFig11 renders the rows.
func WriteFig11(w io.Writer, title string, rows []Fig11Row) {
	fmt.Fprintf(w, "%s — complex event recognition time per query (β=1h)\n", title)
	fmt.Fprintf(w, "%-8s %6s %10s %10s %8s %14s\n",
		"ω", "procs", "MEs/win", "SFs/slide", "CEs", "mean/query")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %6d %10d %10d %8d %14s\n",
			r.Window, r.Procs, r.MeanMEs, r.MeanFacts, r.MeanCEs,
			r.MeanStep.Round(time.Microsecond))
	}
}
