// Command bench is the repository's one benchmark: AIS bytes in, alert
// on the subscriber's socket. It generates each workload's feed from a
// seed, builds and runs the real cmd/serve (and cmd/serve -replica) as
// child processes, drives them only through their outside protocols —
// feed TCP in, alert-log directory, SSE out — checks what was delivered
// against a reference, and prints every metric by name with its unit.
// A separate traced run re-composes the pipeline in this process for
// the per-layer numbers. See README.md beside this file.
//
//	bash cmd/bench/run.sh --workload paper-fleet --seed 1 --seconds 10 --trace 0
//	go run ./cmd/bench -seed 1                       # all workloads, timed and traced
//	go run ./cmd/bench -quick                        # toy sizes, every process
//	go run ./cmd/bench -compare a.jsonl b.jsonl      # verdict per (metric, workload)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of the generated input")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", -1, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
		quick   = flag.Bool("quick", false, "toy fleet and one-second runs: exercises every workload and process, measures nothing")
		out     = flag.String("out", "", "append one JSON record per run to this file (the input of -compare)")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments, by the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files, got %d", flag.NArg()))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-interrupted
		killChildren()
		fatal(errors.New("interrupted"))
	}()
	if err := run(os.Stdout, options{*name, *seed, *seconds, *trace, *quick, *out}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Sizes      string  `json:"sizes"`
	result
	Detail any `json:"detail,omitempty"`
}

// errIncorrect makes the command exit non-zero after it has printed a
// result whose outputs were wrong.
var errIncorrect = errors.New("delivered alerts differ from the reference")

// run executes the selected runs, prints a header, every metric by
// name, and the result of the last run as the last line.
func run(stdout io.Writer, o options) error {
	if runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("refusing to run with GOMAXPROCS=%d: the generator and the system under test need a core each, "+
			"and cmd/serve -shards 0 on one core is the serial tracker, so every number would describe a topology nobody deploys",
			runtime.GOMAXPROCS(0))
	}
	ws := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	if o.quick {
		o.seconds = 1
		ws = append([]workload(nil), ws...)
		for i := range ws {
			ws[i].Vessels = quickVessels
			ws[i].Pairs = min(ws[i].Pairs, 4)
			ws[i].Reps = min(ws[i].Reps, 2)
			ws[i].WarmupRho = ws[i].Rho // a toy fleet has no transient to pace
		}
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	e := env{root: root}
	if e.bin, e.digest, err = buildServe(root); err != nil {
		return err
	}
	commit := "unknown"
	if b, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(stdout, "# bench commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g quick=%v\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.seconds, o.quick)

	var last result
	incorrect := false
	for _, w := range ws {
		sizes := fmt.Sprintf("N=%d areas=%d pairs=%d+%d window=%s slide=%s pairwise=%v rho=%g stream=%s",
			w.Vessels, w.Areas, w.Pairs, w.Pairs, w.Window, w.Slide, w.Pairwise, w.Rho, w.streamDuration(o.seconds))
		fmt.Fprintf(stdout, "# workload %s: %s\n", w.Name, sizes)
		rec := record{
			Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Commit: commit,
			GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Sizes: sizes,
		}
		if o.trace != 1 {
			res, d, err := runTimed(e, w, o.seed, o.seconds)
			if err != nil {
				return fmt.Errorf("workload %s: %w", w.Name, err)
			}
			printTimed(stdout, w, res, d)
			rec.Traced, rec.result, rec.Detail = false, res, d
			if err := appendRecord(o.out, rec); err != nil {
				return err
			}
			last, incorrect = res, incorrect || !res.Correct
		}
		if o.trace != 0 {
			res, err := runTraced(e, w, o.seed, o.seconds)
			if err != nil {
				return fmt.Errorf("workload %s (traced): %w", w.Name, err)
			}
			printMetrics(stdout, w.Name, res)
			rec.Traced, rec.result, rec.Detail = true, res, nil
			if err := appendRecord(o.out, rec); err != nil {
				return err
			}
			last, incorrect = res, incorrect || !res.Correct
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if incorrect {
		return errIncorrect
	}
	return nil
}

func appendRecord(path string, rec record) error {
	if path == "" {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printMetrics lists a result's metrics by name with value and unit.
func printMetrics(stdout io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-14s %-34s %16.6g %s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "%-14s correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
}

func printTimed(stdout io.Writer, w workload, res result, d timedDetail) {
	printMetrics(stdout, w.Name, res)
	fmt.Fprintf(stdout, "%-14s fixes=%d slides=%d alerts=%d input=%.2fs (cache hit=%v) bring-ups=%.3v s\n",
		w.Name, d.Fixes, d.Slides, d.Alerts, d.InputS, d.CacheHit, d.SetupS)
	fmt.Fprintf(stdout, "%-14s alert latency at nominal box speed: n=%d median=%.3f ms p%g=%.3f ms; alert_latency_p95_ms=%.3f (not gated)\n",
		w.Name, d.Latency.N, d.Latency.Median, d.Latency.TailP, d.Latency.Tail, d.LatencyP95MS)
	for i, r := range d.Reps {
		if !r.Valid {
			fmt.Fprintf(os.Stderr, "bench: %s rep %d is invalid, not slow: the generator ran %.2f ms late at p95 (limit %d ms)\n",
				w.Name, i, r.SendLagP95MS, maxSendLagMS)
		}
		fmt.Fprintf(stdout, "%-14s rep %d as measured: box_speed=%.3f measured=%.2fs fixes_per_s=%.0f cpu_s_per_mfix=%.3f rss=%.0fMiB redials=%d\n",
			w.Name, i, r.BoxSpeed, r.MeasuredS, r.FixesPerS, r.CPUSPerMfix, r.PeakRSSMiB, r.Redials)
		fmt.Fprintf(stdout, "%-14s rep %d as measured: alert latency n=%d median=%.3f ms p%g=%.3f ms\n",
			w.Name, i, r.Latency.N, r.Latency.Median, r.Latency.TailP, r.Latency.Tail)
		fmt.Fprintf(stdout, "%-14s rep %d: loadgen.offered_fixes_per_s=%.0f loadgen.send_lag_p95_ms=%.3f valid=%v\n",
			w.Name, i, r.OfferedFixesPerS, r.SendLagP95MS, r.Valid)
		fmt.Fprintf(stdout, "%-14s rep %d: failures: %s scanner=%d ingest=%d hub=%d other=%d\n",
			w.Name, i, r.Verdict, r.ScannerDrops, r.IngestDrops, r.HubDrops, r.OtherFailures)
	}
}
