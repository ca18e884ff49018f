package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestQuick drives -quick: every workload, timed and traced, with real
// child processes, on a toy fleet. It keeps the benchmark compiling and
// honest — and what it prints in step with BENCHMARK.json — without
// running it at size.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the benchmark refuses to run on one core")
	}
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	records := filepath.Join(t.TempDir(), "runs.jsonl")
	var out bytes.Buffer
	if err := run(&out, options{seed: 1, trace: -1, quick: true, out: records}); err != nil {
		t.Fatalf("quick run: %v\n%s", err, out.String())
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	if !strings.HasPrefix(lines[0], "# bench commit=") {
		t.Errorf("no header: %q", lines[0])
	}

	f, err := os.Open(records)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		seen[rec.Workload]++
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", rec.Workload, rec.Traced, rec.Correct, rec.Attempted, rec.Failed)
		}
		want := map[string]string{}
		if rec.Traced {
			for _, m := range sp.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range sp.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		for name, unit := range want {
			if got, ok := rec.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("%s traced=%v: metric %s [%s] of BENCHMARK.json is missing or has unit %q", rec.Workload, rec.Traced, name, unit, got.Unit)
			}
		}
		for name := range rec.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", rec.Workload, rec.Traced, name)
			}
		}
	}
	for _, w := range sp.Workloads {
		if seen[w.Name] != 2 {
			t.Errorf("workload %s of BENCHMARK.json: %d runs recorded, want one timed and one traced", w.Name, seen[w.Name])
		}
	}
	if len(seen) != len(workloads) {
		t.Errorf("recorded workloads %v, the benchmark defines %d", seen, len(workloads))
	}
}

// TestRefusesOneCore: no parallel-topology number on a box that cannot
// exercise it — the run names the reason and records nothing.
func TestRefusesOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	records := filepath.Join(t.TempDir(), "runs.jsonl")
	var out bytes.Buffer
	err := run(&out, options{seed: 1, trace: -1, quick: true, out: records})
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS=1") {
		t.Fatalf("run on one core: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q", out.String())
	}
	if _, err := os.Stat(records); !os.IsNotExist(err) {
		t.Errorf("recorded something: %v", err)
	}
}
