package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/feed"
	"repro/internal/geo"
	"repro/internal/stream"
)

// pinnedFlags is every flag and default of the nine tools, as their
// own binaries printed them with -h before they became subcommands.
// The one addition since is -areas on feed and analytics: a feed must
// be able to simulate the world its consumers regenerate.
var pinnedFlags = map[string]map[string]string{
	"aisgen":      {"areas": "35", "format": "csv", "hours": "6", "seed": "1", "truth": "", "vessels": "500"},
	"tracker":     {"geojson": "", "in": "-", "kml": "", "out": "", "slide": "10m0s", "turn": "15", "window": "1h0m0s"},
	"recognize":   {"areas": "35", "checkpoint-dir": "", "checkpoint-every": "6", "debug-addr": "", "degrade": "false", "degrade-depth-high": "0", "degrade-slide-high": "0s", "feed": "", "hours": "6", "in": "", "ingest-buffer": "8192", "pairwise": "false", "quiet": "false", "seed": "1", "shards": "0", "slide": "10m0s", "vessels": "300", "watchdog": "0s", "window": "1h0m0s"},
	"feed":        {"addr": "127.0.0.1:4001", "areas": "35", "chaos": "false", "chaos-corrupt-every": "200", "chaos-duplicate-every": "0", "chaos-resets": "500,1500", "chaos-seed": "42", "chaos-truncate": "true", "handshake-wait": "2s", "hours": "6", "seed": "1", "speedup": "600", "vessels": "300"},
	"analytics":   {"areas": "35", "clusters": "4", "hours": "24", "load": "", "save": "", "seed": "1", "vessels": "400"},
	"worker":      {"areas": "35", "checkpoint-dir": "", "checkpoint-every": "6", "dead-peer": "10s", "debug-addr": "", "grid-start": "", "id": "0", "pin-seq": "0", "router": "", "seed": "1", "shards": "1", "slide": "10m0s", "uplink": "127.0.0.1:4200", "vessels": "300", "window": "1h0m0s", "workers": "3"},
	"cluster":     {"addr": "127.0.0.1:8080", "areas": "35", "feed": "", "hours": "3", "manifest-dir": "", "manifest-keep": "3", "pairwise": "true", "queue-cap": "64", "restore-dirs": "", "retain": "65536", "ring": "1024", "seed": "1", "slice-addrs": "", "slice-base-port": "4101", "slide": "10m0s", "speedup": "600", "uplink": "127.0.0.1:4200", "vessels": "300", "window": "1h0m0s", "workers": "3"},
	"serveload":   {"duration": "15s", "filter": "", "subs": "1000", "url": "http://127.0.0.1:8080", "urls": ""},
	"experiments": {"list": "false", "run": "", "scale": "default"},
}

// TestFlagsPinned: folding the tools into one binary on the shared
// wiring adds and drops no flag and changes no default.
func TestFlagsPinned(t *testing.T) {
	if len(commands) != len(pinnedFlags) {
		t.Errorf("%d subcommands, %d pinned", len(commands), len(pinnedFlags))
	}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.flags(fs, io.Discard)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		want := pinnedFlags[c.name]
		for name, def := range want {
			if g, ok := got[name]; !ok {
				t.Errorf("%s: -%s is gone", c.name, name)
			} else if g != def {
				t.Errorf("%s: -%s defaults to %q, want %q", c.name, name, g, def)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: -%s is new", c.name, name)
			}
		}
	}
}

// readmeLine is one `go run ./cmd/...` command of the README: the
// arguments after the package, and the file its stdout is redirected to.
type readmeLine struct {
	text   string
	binary string
	args   []string
	stdout string
}

// readmeCommands returns the README's `go run ./cmd/...` commands,
// continuation lines joined, with comments and everything from the
// first shell operator on cut away.
func readmeCommands(t *testing.T) []readmeLine {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []readmeLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		text := sc.Text()
		if !strings.HasPrefix(text, "go run ./cmd/") {
			continue
		}
		for strings.HasSuffix(text, `\`) && sc.Scan() {
			text = strings.TrimSuffix(text, `\`) + " " + sc.Text()
		}
		cmd, _, _ := strings.Cut(text, " #")
		fields := strings.Fields(cmd)
		l := readmeLine{text: text, binary: strings.TrimPrefix(fields[2], "./cmd/")}
		for i := 3; i < len(fields); i++ {
			if fields[i] == ">" && i+1 < len(fields) {
				l.stdout = fields[i+1]
			}
			if strings.ContainsAny(fields[i], ">&|;") {
				break
			}
			l.args = append(l.args, fields[i])
		}
		out = append(out, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no go run ./cmd/ lines in README.md")
	}
	return out
}

// toyScale shrinks a README command's fleet and duration so it runs in
// a test.
func toyScale(args []string) []string {
	out := append([]string(nil), args...)
	for i := 0; i+1 < len(out); i++ {
		switch out[i] {
		case "-vessels":
			out[i+1] = "20"
		case "-hours":
			out[i+1] = "1"
		}
	}
	return out
}

// batch reports whether a README command runs to completion on its own
// in seconds at toy scale: the dataset tools, the pipeline without a
// live feed, and the experiment listing. Serving commands are covered
// by the cluster, serve and alert-log suites.
func batch(sub string, args []string) bool {
	switch sub {
	case "aisgen", "tracker", "analytics":
		return true
	case "recognize":
		return !strings.Contains(strings.Join(args, " "), "-feed")
	case "experiments":
		return len(args) == 1 && args[0] == "-list"
	}
	return false
}

// TestReadmeCommands: every `go run ./cmd/...` line of the README names
// an existing binary and, for cmd/maritime, a subcommand whose flags
// parse; the batch ones run in process to completion at toy scale, in
// README order, so aisgen's dataset feeds the tracker. cmd/serve's lines
// are held by its own test.
func TestReadmeCommands(t *testing.T) {
	lines := readmeCommands(t)
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Relative paths in the README (fleet.csv, fleet.kml) land here.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	ran := 0
	for _, l := range lines {
		if _, err := os.Stat(filepath.Join(wd, "..", l.binary)); err != nil {
			t.Errorf("%q: no binary cmd/%s", l.text, l.binary)
			continue
		}
		if l.binary != "maritime" {
			continue
		}
		if len(l.args) == 0 {
			t.Errorf("%q: no subcommand", l.text)
			continue
		}
		c, ok := lookup(l.args[0])
		if !ok {
			t.Errorf("%q: no subcommand %q", l.text, l.args[0])
			continue
		}
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.flags(fs, io.Discard)
		if err := fs.Parse(l.args[1:]); err != nil || fs.NArg() != 0 {
			t.Errorf("%q: flags do not parse: %v %q", l.text, err, fs.Args())
			continue
		}
		if !batch(c.name, l.args[1:]) {
			continue
		}
		stdout := io.Discard
		if l.stdout != "" {
			f, err := os.Create(l.stdout)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			stdout = f
		}
		fs = flag.NewFlagSet(c.name, flag.ContinueOnError)
		run := c.flags(fs, stdout)
		if err := fs.Parse(toyScale(l.args[1:])); err != nil {
			t.Fatal(err)
		}
		logs.Reset()
		if err := run(context.Background()); err != nil {
			t.Errorf("%q at toy scale: %v\n%s", l.text, err, logs.String())
		}
		ran++
	}
	if ran < 5 {
		t.Errorf("ran %d README commands, want at least aisgen, tracker, recognize, analytics and experiments -list", ran)
	}
}

// TestFeedServesTheWorldOfItsFlags: `feed -areas 140` replays exactly
// the fix stream that the same world flags simulate in process — the
// stream a consumer given -areas 140 regenerates. The fleet simulator's
// stream depends on the area count, so a feed pinned to 35 areas would
// serve a different world.
func TestFeedServesTheWorldOfItsFlags(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	fs := flag.NewFlagSet("feed", flag.ContinueOnError)
	run := feedCmd(fs, io.Discard)
	if err := fs.Parse([]string{"-addr", addr, "-vessels", "30", "-hours", "1", "-areas", "140", "-speedup", "0"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("feed: %v", err)
		}
	}()

	c, err := feed.DialReconnecting(addr, feed.DefaultRetryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := stream.Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	want := cli.World{Vessels: 30, Seed: 1, Areas: 140, Hours: 1}.Simulator().Run()
	if len(got) != len(want) {
		t.Fatalf("feed served %d fixes, the world simulates %d", len(got), len(want))
	}
	for i := range got {
		// AIS position resolution is 1/10000 arc-minute (~0.2 m).
		if got[i].MMSI != want[i].MMSI || got[i].Time.Unix() != want[i].Time.Unix() || geo.Haversine(got[i].Pos, want[i].Pos) > 0.5 {
			t.Fatalf("fix %d: served %+v, simulated %+v", i, got[i], want[i])
		}
	}
}
