package main

import (
	"context"
	"flag"
	"io"
	"log"
	"strings"
	"time"

	"repro/internal/serve"
)

// serveloadCmd is the fan-out load harness: it drives many concurrent
// SSE subscribers against a running alert gateway (cmd/serve) — or a
// set of serving endpoints including `-replica` nodes — and reports
// aggregate delivery throughput and the tail of the publish→receive
// latency distribution.
//
//	serve -vessels 300 -speedup 0 &            # a gateway under load
//	maritime serveload -url http://127.0.0.1:8080 -subs 5000 -duration 15s
//
// Spread subscribers round-robin over the writer plus its replicas:
//
//	maritime serveload -urls http://127.0.0.1:8080,http://127.0.0.1:8081 \
//	    -subs 5000 -duration 15s
func serveloadCmd(fs *flag.FlagSet, _ io.Writer) func(context.Context) error {
	var (
		url      = fs.String("url", "http://127.0.0.1:8080", "gateway base URL")
		urls     = fs.String("urls", "", "comma-separated serving endpoints (writer and/or replicas); overrides -url")
		subs     = fs.Int("subs", 1000, "concurrent SSE subscribers")
		duration = fs.Duration("duration", 15*time.Second, "run length")
		query    = fs.String("filter", "", "raw filter query for /events, e.g. mmsi=237000101 or ce=illegalShipping")
	)
	return func(ctx context.Context) error {
		opt := serve.LoadOptions{
			BaseURL:     *url,
			Subscribers: *subs,
			Duration:    *duration,
			Query:       *query,
		}
		if *urls != "" {
			for _, u := range strings.Split(*urls, ",") {
				if u = strings.TrimSpace(u); u != "" {
					opt.BaseURLs = append(opt.BaseURLs, u)
				}
			}
		}
		targets := opt.BaseURLs
		if len(targets) == 0 {
			targets = []string{opt.BaseURL}
		}

		log.Printf("driving %d subscribers against %s for %s", *subs, strings.Join(targets, ", "), *duration)
		rep := serve.RunLoad(ctx, opt)
		log.Print(rep)
		for i, n := range rep.PerReplica {
			log.Printf("  %s: %d events", targets[i], n)
		}
		return nil
	}
}
