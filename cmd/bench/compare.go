package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is BENCHMARK.json: the names, directions and regression bounds
// every comparison is judged by.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec() (*spec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	s := new(spec)
	if err := json.Unmarshal(raw, s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// readRuns loads the timed runs of an -out file: metric values by
// workload and metric name, in run order.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if rec.Traced {
			continue
		}
		byMetric := runs[rec.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			runs[rec.Workload] = byMetric
		}
		for name, m := range rec.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return runs, sc.Err()
}

// Verdicts of one (metric, workload) pairing.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares the runs of side b with those of side a on one metric.
// Wider spread than the bound on either side leaves the pairing
// unresolved. It regressed when b's median is worse than a's by more
// than the bound. It improved when b wins at least nine tenths of the
// runs paired in order (ties count for neither) and the medians differ
// by more than the distance between a's quartiles. Otherwise unchanged.
func judge(a, b []float64, lowerIsBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	if spread(a) > bound || spread(b) > bound {
		return unresolved
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if !lowerIsBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	pairs := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch better := b[i] < a[i]; {
		case a[i] == b[i]:
		case better == lowerIsBetter:
			wins++
		default:
			losses++
		}
	}
	iqr := 0.0
	if len(a) >= 2 {
		q1, _, q3 := quartiles(a)
		iqr = q3 - q1
	}
	if worse < 0 && wins > 0 && float64(wins) >= 0.9*float64(wins+losses) && math.Abs(mb-ma) > iqr {
		return improved
	}
	return unchanged
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, both spreads, the bound, the verdict. No combined score.
func compareFiles(out io.Writer, pathA, pathB string) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(a))
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	fmt.Fprintf(out, "%-14s %-22s %5s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "iqr a", "iqr b", "bound", "verdict")
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			fmt.Fprintf(out, "%-14s %-22s %2d/%-2d %14.6g %14.6g %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w, m.Name, len(va), len(vb), median(va), median(vb),
				100*spread(va), 100*spread(vb), 100*m.Bound, judge(va, vb, m.Better == "lower", m.Bound))
		}
	}
	return nil
}
