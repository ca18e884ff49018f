package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/faults"
	"repro/internal/feed"
)

// feedCmd serves a simulated AIS fleet as a live NMEA stream over TCP,
// standing in for the live Aegean feed the paper planned to integrate
// (§7). Clients (e.g. `maritime recognize -feed <addr>`) receive
// timestamped AIVDM sentences paced at the configured time
// acceleration; resuming clients (feed.ReconnectingClient) are replayed
// only what they have not yet seen.
//
// With -chaos the stream is served through a deterministic
// fault-injection proxy (internal/faults), so the fault-tolerance layer
// can be exercised end to end from the command line:
//
//	maritime feed -addr :4001 -vessels 300 -hours 6 -speedup 600 \
//	     -chaos -chaos-resets 500,1500 -chaos-corrupt-every 200
func feedCmd(fs *flag.FlagSet, _ io.Writer) func(context.Context) error {
	world := cli.DefaultWorld()
	world.Flags(fs)
	var (
		addr    = fs.String("addr", "127.0.0.1:4001", "listen address")
		speedup = fs.Float64("speedup", 600, "time acceleration (0 = as fast as possible)")
		hsWait  = fs.Duration("handshake-wait", feed.DefaultHandshakeWait, "how long to wait for a RESUME handshake (0 disables resume)")

		chaos        = fs.Bool("chaos", false, "serve through a fault-injection proxy")
		chaosSeed    = fs.Int64("chaos-seed", 42, "fault schedule seed")
		chaosResets  = fs.String("chaos-resets", "500,1500", "comma-separated line counts after which successive connections are RST")
		chaosTrunc   = fs.Bool("chaos-truncate", true, "deliver half of the in-flight line before each reset")
		chaosCorrupt = fs.Int("chaos-corrupt-every", 200, "corrupt one byte of every Nth line (0 = off)")
		chaosDup     = fs.Int("chaos-duplicate-every", 0, "send every Nth line twice (0 = off)")
	)
	return func(ctx context.Context) error {
		resets, err := parseResets(*chaosResets) // validate before the (slow) simulation
		if err != nil {
			return err
		}
		fixes := world.Simulator().Run()
		log.Printf("replaying %d fixes from %d vessels at %gx", len(fixes), world.Vessels, *speedup)

		ctx, stop := cli.SignalContext(ctx)
		defer stop()

		srv := &feed.Server{Source: feed.NewReplay(fixes), Speedup: *speedup, Logf: log.Printf, HandshakeWait: *hsWait}
		addrCh := make(chan net.Addr, 1)
		go func() {
			a := <-addrCh
			log.Printf("listening on %s", a)
		}()

		if !*chaos {
			err = srv.ListenAndServe(ctx, *addr, addrCh)
		} else {
			// The real server moves to an ephemeral loopback port; clients
			// talk to the proxy at the public address.
			upstreamCh := make(chan net.Addr, 1)
			go func() {
				if err := srv.ListenAndServe(ctx, "127.0.0.1:0", upstreamCh); err != nil {
					log.Fatal(err)
				}
			}()
			proxy := &faults.Proxy{
				Upstream: (<-upstreamCh).String(),
				Plan: faults.Plan{
					Seed:            *chaosSeed,
					ResetAfterLines: resets,
					TruncateOnReset: *chaosTrunc,
					CorruptEvery:    *chaosCorrupt,
					DuplicateEvery:  *chaosDup,
				},
				Logf: log.Printf,
			}
			log.Printf("chaos proxy armed: %+v", proxy.Plan)
			if err = proxy.ListenAndServe(ctx, *addr, addrCh); err == nil {
				log.Printf("faults injected: %+v", proxy.Stats())
			}
		}
		if err != nil {
			return err
		}
		log.Printf("server stats: %+v", srv.Stats())
		return nil
	}
}

// parseResets turns "500,1500" into per-connection reset line counts.
func parseResets(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad -chaos-resets entry %q: %v", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}
