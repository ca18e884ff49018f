package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/serve"
)

// subscriber is the benchmark's one SSE client. It records every
// envelope with the time it was read and can re-dial once, resuming
// with Last-Event-ID, when a chosen number of envelopes has arrived.
type subscriber struct {
	url string // the /events endpoint

	mu sync.Mutex
	// redialAt, when positive, drops the connection once after that many
	// envelopes and resumes from the last sequence number seen.
	redialAt int
	redialed bool
	got      []received
	hangUp   context.CancelFunc
}

// run streams until ctx ends. The first dial asks for everything after
// sequence 0, so an alert published before the subscription registered
// is replayed rather than lost.
func (s *subscriber) run(ctx context.Context) error {
	var last uint64
	for ctx.Err() == nil {
		dial, hangUp := context.WithCancel(ctx)
		s.mu.Lock()
		s.hangUp = hangUp
		s.mu.Unlock()
		url := s.url
		if last == 0 {
			url += "?after=0"
		}
		err := serve.StreamAlerts(dial, url, last, s.record)
		hangUp()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if n := len(s.got); n > 0 {
			last = s.got[n-1].Env.Seq
		}
		s.mu.Unlock()
	}
	return nil
}

func (s *subscriber) record(e serve.Envelope) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, received{Env: e, At: now})
	if s.redialAt > 0 && !s.redialed && len(s.got) >= s.redialAt {
		s.redialed = true
		s.hangUp()
	}
}

// redialAfter arms the one re-dial: it happens when n envelopes have
// arrived.
func (s *subscriber) redialAfter(n int) {
	s.mu.Lock()
	s.redialAt = n
	s.mu.Unlock()
}

// redials reports how many times the subscriber re-dialled (0 or 1).
func (s *subscriber) redials() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.redialed {
		return 1
	}
	return 0
}

func (s *subscriber) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

// snapshot returns what has been read so far.
func (s *subscriber) snapshot() []received {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]received(nil), s.got...)
}
