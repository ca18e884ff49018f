package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// buildDir is everything the benchmark writes, relative to the root of
// the checkout: the child binary, the input cache, alert logs, child
// logs and trace files. The root .gitignore names it.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the directory that
// holds go.mod, so the benchmark works from the root of a checkout and
// from `go test ./cmd/bench`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServe compiles cmd/serve from the checkout's source and returns
// the binary's path and a digest of its bytes (the input cache is keyed
// by it, so a cache entry is never reused across code versions).
func buildServe(root string) (bin, digest string, err error) {
	bin = filepath.Join(root, buildDir, "bin", "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("building cmd/serve: %v\n%s", err, out)
	}
	f, err := os.Open(bin)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", "", err
	}
	return bin, hex.EncodeToString(h.Sum(nil)), nil
}

// child is one cmd/serve process.
type child struct {
	cmd  *exec.Cmd
	addr string // its HTTP address
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// live is every child started and not yet waited for, so that a signal
// to the benchmark does not leave them running.
var live = struct {
	sync.Mutex
	procs map[*os.Process]bool
}{procs: make(map[*os.Process]bool)}

// killChildren kills every live child; main calls it on SIGINT and
// SIGTERM before exiting.
func killChildren() {
	live.Lock()
	defer live.Unlock()
	for p := range live.procs {
		_ = p.Kill() // already gone is fine
	}
}

// startChild runs the serve binary with the given flags plus -addr on a
// free loopback port, logging to logPath.
func startChild(bin, logPath string, flags ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	c := &child{addr: addr, log: logf, done: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	c.cmd.Stdout = logf
	c.cmd.Stderr = logf
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	live.Lock()
	live.procs[c.cmd.Process] = true
	live.Unlock()
	go func() {
		_ = c.cmd.Wait() // the exit state is read from ProcessState
		live.Lock()
		delete(live.procs, c.cmd.Process)
		live.Unlock()
		close(c.done)
	}()
	return c, nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitHTTP polls the child's /healthz until it answers, the child
// exits, or the context ends.
func (c *child) waitHTTP(ctx context.Context) error {
	for {
		resp, err := http.Get("http://" + c.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		select {
		case <-c.done:
			return fmt.Errorf("child exited during start-up: %v (see %s)", c.cmd.ProcessState, c.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("child not serving on %s: %w", c.addr, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// writerHealth is the part of the writer's /healthz the benchmark
// reads.
type writerHealth struct {
	Slides    int  `json:"slides"`
	StreamEnd bool `json:"stream_ended"`
	Health    struct {
		DropsByCause   map[string]int
		IngestOverflow int
		WatchdogTrips  int
		Quarantined    int
		Failed         int
	} `json:"health"`
	Hub serve.HubStats `json:"hub"`
}

// replicaHealthz is the part of a replica's /healthz the benchmark
// reads.
type replicaHealthz struct {
	Replica serve.ReplicaInfo `json:"replica"`
	Hub     serve.HubStats    `json:"hub"`
}

func (c *child) healthz(into any) error {
	resp, err := http.Get("http://" + c.addr + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// usage is what a finished child cost.
type usage struct {
	cpu    time.Duration // user + system
	rssMiB float64       // peak resident set
}

// peakRSS reads the child's resident-set high-water mark from
// /proc/<pid>/status. (The ru_maxrss of a waited child is no use: exec
// folds the forking parent's peak into it, so it reports the
// benchmark's own memory.)
func (c *child) peakRSS() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kib / 1024
		}
	}
	return 0
}

// stop ends the child with SIGTERM (SIGKILL after five seconds), waits
// for it, and returns its resource use.
func (c *child) stop() usage {
	u := usage{rssMiB: c.peakRSS()}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
	if ps := c.cmd.ProcessState; ps != nil {
		u.cpu = ps.UserTime() + ps.SystemTime()
	}
	return u
}
