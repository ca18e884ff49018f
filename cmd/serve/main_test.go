package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// pinned is every flag and default of the gateway as its binary printed
// them with -h before it was rebuilt on internal/cli; cmd/bench starts
// it with a subset of these.
var pinned = map[string]string{"addr": "127.0.0.1:8080", "alert-log": "", "areas": "35", "checkpoint-dir": "", "checkpoint-every": "6", "debug-addr": "", "degrade": "true", "degrade-depth-high": "0", "degrade-slide-high": "0s", "feed": "", "hours": "6", "ingest-buffer": "8192", "log-keep": "8", "log-segment-bytes": "1048576", "pairwise": "true", "replica": "false", "replica-name": "", "ring": "1024", "seed": "1", "shards": "0", "slide": "10m0s", "speedup": "600", "sub-queue": "256", "v": "false", "vessels": "300", "watchdog": "5s", "window": "1h0m0s"}

func TestFlagsPinned(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	flags(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	for name, def := range pinned {
		if g, ok := got[name]; !ok {
			t.Errorf("-%s is gone", name)
		} else if g != def {
			t.Errorf("-%s defaults to %q, want %q", name, g, def)
		}
	}
	for name := range got {
		if _, ok := pinned[name]; !ok {
			t.Errorf("-%s is new", name)
		}
	}
}

// TestReadmeCommands: the flags of every `go run ./cmd/serve` line of
// the README parse.
func TestReadmeCommands(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(readme), "\n") {
		rest, ok := strings.CutPrefix(line, "go run ./cmd/serve ")
		if !ok {
			continue
		}
		n++
		var args []string
		for _, f := range strings.Fields(rest) {
			if strings.ContainsAny(f, "#>&|;\\") {
				break
			}
			args = append(args, f)
		}
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags(fs)
		if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
			t.Errorf("%q: flags do not parse: %v %q", line, err, fs.Args())
		}
	}
	if n == 0 {
		t.Fatal("no go run ./cmd/serve lines in README.md")
	}
}
