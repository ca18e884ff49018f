package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"repro/internal/expbench"
	"repro/internal/tracker"
)

// experiment binds an id to its runner.
type experiment struct {
	id    string
	about string
	run   func(w *expbench.Workloads)
}

// experimentsCmd regenerates every table and figure of the paper's
// evaluation (§5) against the synthetic workload, printing the same
// rows and series the paper reports. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured comparisons.
//
//	maritime experiments -list                 # show experiment ids and settings
//	maritime experiments -run all              # everything (default scale)
//	maritime experiments -run fig8,fig9        # a subset
//	maritime experiments -run fig11a -scale ci # quick run
//	maritime experiments -run fig6b -scale paper
func experimentsCmd(fs *flag.FlagSet, out io.Writer) func(context.Context) error {
	var (
		runList   = fs.String("run", "", "comma-separated experiment ids, or 'all'")
		scaleName = fs.String("scale", "default", "workload scale: ci, default, paper")
		list      = fs.Bool("list", false, "list experiments and settings, then exit")
	)
	return func(context.Context) error {
		scale := expbench.ScaleDefault
		switch *scaleName {
		case "ci":
			scale = expbench.ScaleCI
		case "default":
		case "paper":
			scale = expbench.ScalePaper
		default:
			return fmt.Errorf("unknown scale %q", *scaleName)
		}
		experiments := []experiment{
			{"fig6a", "tracking cost per slide, small windows (ω ∈ {1h,2h})", func(w *expbench.Workloads) {
				expbench.WriteFig6(out, "Figure 6(a)", expbench.Fig6a(w.Short()))
			}},
			{"fig6b", "tracking cost per slide, large windows (ω ∈ {6h,24h})", func(w *expbench.Workloads) {
				expbench.WriteFig6(out, "Figure 6(b)", expbench.Fig6b(w.Long()))
			}},
			{"fig7", "tracking at inflated arrival rates ρ up to 10K pos/s", func(w *expbench.Workloads) {
				expbench.WriteFig7(out, expbench.Fig7(w.Short(), nil, w.Scale.Fig7Reps, 3))
			}},
			{"fig8", "trajectory approximation RMSE vs Δθ", func(w *expbench.Workloads) {
				expbench.WriteFig8(out, expbench.Fig89(w.Short()))
			}},
			{"fig9", "compression ratio and critical points vs Δθ", func(w *expbench.Workloads) {
				expbench.WriteFig9(out, expbench.Fig89(w.Short()))
			}},
			{"fig10", "trajectory maintenance breakdown per slide", func(w *expbench.Workloads) {
				expbench.WriteFig10(out, expbench.Fig10(w.Long()))
			}},
			{"table4", "statistics from compressed trajectories", func(w *expbench.Workloads) {
				expbench.WriteTable4(out, expbench.Table4(w.Long()))
			}},
			{"fig11a", "CE recognition time, on-demand spatial reasoning", func(w *expbench.Workloads) {
				expbench.WriteFig11(out, "Figure 11(a)", expbench.Fig11a(w.Short()))
			}},
			{"fig11b", "CE recognition time, precomputed spatial facts", func(w *expbench.Workloads) {
				expbench.WriteFig11(out, "Figure 11(b)", expbench.Fig11b(w.Short()))
			}},
			{"scaling", "online cost vs fleet size N (the scalability claim)", func(w *expbench.Workloads) {
				sizes := []int{250, 500, 1000, 2000}
				if w.Scale.Name == "ci" {
					sizes = []int{100, 250, 500}
				}
				expbench.WriteScaling(out, expbench.ScalingSweep(sizes, 6, w.Scale.Seed))
			}},
			{"delay", "delayed ME arrival: window range vs information loss (§4.2)", func(w *expbench.Workloads) {
				expbench.WriteDelay(out, expbench.DelayExperiment(w.Short(), 90*time.Minute, 0.25))
			}},
			{"baseline", "online critical points vs offline Douglas–Peucker (§3.2/§6)", func(w *expbench.Workloads) {
				expbench.WriteBaseline(out, expbench.BaselineSimplify(w.Short()))
			}},
			{"prob", "probabilistic recognition: belief threshold vs alerts/recall (§7)", func(w *expbench.Workloads) {
				expbench.WriteProb(out, expbench.ProbSweep(w.Short(), nil))
			}},
			{"ablation", "design-choice ablations (outlier filter, window, grid)", func(w *expbench.Workloads) {
				expbench.WriteAblationOutlier(out, expbench.RunAblationOutlier(w.Short()))
				fmt.Fprintln(out)
				expbench.WriteAblationWindow(out, expbench.RunAblationWindow(w.Short()))
				fmt.Fprintln(out)
				expbench.WriteAblationGrid(out, expbench.RunAblationGrid(w.Short()))
			}},
		}

		if *list {
			fmt.Fprintln(out, "Experiments (pass ids to -run, comma-separated, or 'all'):")
			for _, e := range experiments {
				fmt.Fprintf(out, "  %-8s %s\n", e.id, e.about)
			}
			fmt.Fprintln(out, "\nTable 2 — experimental settings (scaled):")
			fmt.Fprintf(out, "  scale %-8s fleet N=%d, short runs %s, long runs %s\n",
				scale.Name, scale.Vessels, scale.Short, scale.Long)
			fmt.Fprintln(out, "  windows ω ∈ {10min…24h}, slides β ∈ {1min…4h}, rates ρ up to 10K pos/s")
			fmt.Fprintln(out, "\nTable 3 — mobility tracking parameters (defaults in bold in the paper):")
			p := tracker.DefaultParams()
			fmt.Fprintf(out, "  v_min=%.0f knot, α=%.0f%%, ΔT=%s, Δθ∈{5°,10°,15°,20°} (default %.0f°), r=%.0fm, m=%d\n",
				p.VMinKnots, p.SpeedChangeFrac*100, p.GapPeriod, p.TurnThresholdDeg,
				p.StopRadiusMeters, p.M)
			return nil
		}

		if *runList == "" {
			return errors.New("pass -run <ids|all> or -list")
		}
		selected := map[string]bool{}
		if *runList == "all" {
			for _, e := range experiments {
				selected[e.id] = true
			}
		} else {
			for _, id := range strings.Split(*runList, ",") {
				selected[strings.TrimSpace(id)] = true
			}
		}

		w := expbench.NewWorkloads(scale)
		ran := 0
		for _, e := range experiments {
			if !selected[e.id] {
				continue
			}
			delete(selected, e.id)
			log.Printf("running %s (scale %s, N=%d) ...", e.id, scale.Name, scale.Vessels)
			t0 := time.Now()
			e.run(w)
			fmt.Fprintf(out, "\n[%s completed in %s]\n\n", e.id, time.Since(t0).Round(time.Millisecond))
			ran++
		}
		for id := range selected {
			log.Printf("unknown experiment id %q (see -list)", id)
		}
		if ran == 0 {
			return errors.New("no experiment ran")
		}
		return nil
	}
}
