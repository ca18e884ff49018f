package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/tracker"
)

// runSub runs one subcommand in process with the given flags.
func runSub(t *testing.T, run func(*flag.FlagSet, io.Writer) func(context.Context) error, stdout io.Writer, args ...string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fn := run(fs, stdout)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := fn(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// trackingCost matches the one wall-clock figure of the tracker's log.
var trackingCost = regexp.MustCompile(`mean tracking cost \S+/slide`)

// TestTrackerLogDeterministic: the tracker subcommand logs the same
// bytes on every run over one input — the per-type counts in event type
// order — apart from its wall-clock tracking cost.
func TestTrackerLogDeterministic(t *testing.T) {
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	defer log.SetFlags(log.Flags())
	log.SetFlags(0)
	data := filepath.Join(t.TempDir(), "fleet.csv")
	f, err := os.Create(data)
	if err != nil {
		t.Fatal(err)
	}
	runSub(t, aisgenCmd, f, "-vessels", "40", "-hours", "2")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	runTracker := func() string {
		logs.Reset()
		runSub(t, trackerCmd, io.Discard, "-in", data)
		return trackingCost.ReplaceAllString(logs.String(), "mean tracking cost X/slide")
	}
	first, second := runTracker(), runTracker()
	if first != second {
		t.Errorf("two runs over one input logged differently:\n%s\n---\n%s", first, second)
	}

	rank := map[string]tracker.EventType{}
	for et := tracker.EventFirst; et <= tracker.EventSlowEnd; et++ {
		rank[et.String()] = et
	}
	var types []tracker.EventType
	for _, line := range strings.Split(first, "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(line, "  ") {
			if et, ok := rank[f[0]]; ok {
				types = append(types, et)
			}
		}
	}
	if len(types) < 3 {
		t.Fatalf("logged counts for %d event types, want several:\n%s", len(types), first)
	}
	for i := 1; i < len(types); i++ {
		if types[i] <= types[i-1] {
			t.Fatalf("per-type counts out of event type order: %v", types)
		}
	}
}
