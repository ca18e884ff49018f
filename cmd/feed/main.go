// Command feed serves a simulated AIS fleet as a live NMEA stream over
// TCP, standing in for the live Aegean feed the paper planned to
// integrate (§7). Clients (e.g. `recognize -feed <addr>`) receive
// timestamped AIVDM sentences paced at the configured time
// acceleration; resuming clients (feed.ReconnectingClient) are replayed
// only what they have not yet seen.
//
// With -chaos the stream is served through a deterministic
// fault-injection proxy (internal/faults), so the fault-tolerance layer
// can be exercised end to end from the command line:
//
//	feed -addr :4001 -vessels 300 -hours 6 -speedup 600 \
//	     -chaos -chaos-resets 500,1500 -chaos-corrupt-every 200
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/feed"
	"repro/internal/fleetsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("feed: ")

	var (
		addr    = flag.String("addr", "127.0.0.1:4001", "listen address")
		vessels = flag.Int("vessels", 300, "fleet size")
		hours   = flag.Float64("hours", 6, "simulated duration")
		seed    = flag.Int64("seed", 1, "world/fleet seed")
		speedup = flag.Float64("speedup", 600, "time acceleration (0 = as fast as possible)")
		hsWait  = flag.Duration("handshake-wait", feed.DefaultHandshakeWait, "how long to wait for a RESUME handshake (0 disables resume)")

		chaos        = flag.Bool("chaos", false, "serve through a fault-injection proxy")
		chaosSeed    = flag.Int64("chaos-seed", 42, "fault schedule seed")
		chaosResets  = flag.String("chaos-resets", "500,1500", "comma-separated line counts after which successive connections are RST")
		chaosTrunc   = flag.Bool("chaos-truncate", true, "deliver half of the in-flight line before each reset")
		chaosCorrupt = flag.Int("chaos-corrupt-every", 200, "corrupt one byte of every Nth line (0 = off)")
		chaosDup     = flag.Int("chaos-duplicate-every", 0, "send every Nth line twice (0 = off)")
	)
	flag.Parse()
	resets := parseResets(*chaosResets) // validate before the (slow) simulation

	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = *vessels
	cfg.Seed = *seed
	cfg.Duration = time.Duration(*hours * float64(time.Hour))
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()
	log.Printf("replaying %d fixes from %d vessels at %gx", len(fixes), *vessels, *speedup)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	srv := &feed.Server{Source: feed.NewReplay(fixes), Speedup: *speedup, Logf: log.Printf, HandshakeWait: *hsWait}
	addrCh := make(chan net.Addr, 1)
	go func() {
		a := <-addrCh
		log.Printf("listening on %s", a)
	}()

	if *chaos {
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
		if err := proxy.ListenAndServe(ctx, *addr, addrCh); err != nil {
			log.Fatal(err)
		}
		log.Printf("faults injected: %+v", proxy.Stats())
	} else if err := srv.ListenAndServe(ctx, *addr, addrCh); err != nil {
		log.Fatal(err)
	}
	log.Printf("server stats: %+v", srv.Stats())
}

// parseResets turns "500,1500" into per-connection reset line counts.
func parseResets(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			log.Fatalf("bad -chaos-resets entry %q: %v", part, err)
		}
		out = append(out, n)
	}
	return out
}
