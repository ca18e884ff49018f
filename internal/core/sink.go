package core

import (
	"fmt"
	"io"
	"sync"
)

// AlertSink consumes each slide's outcome as it is produced — the
// "alerts to authorities" edge of the paper's Figure 1. Drivers register
// sinks instead of formatting alerts themselves, so the same pipeline
// can feed a terminal, a log, and the HTTP gateway at once. Consume is
// called synchronously from ProcessBatch, on the pipeline goroutine, so
// its time is the pipeline's: a sink that blocks stalls the next slide.
// Not every sink can hand off. internal/serve's Gateway.Consume calls
// Hub.Publish, which appends the slide's alerts to the durable alert log
// and fsyncs it before any subscriber sees them — durability precedes
// visibility — so the gateway costs one write plus one fsync per slide
// that has alerts: about 0.45 ms at the median for the whole sink on the
// paced-direct benchmark workload, on the 2-core benchmark box. Fan-out
// to subscribers is the part that is queued.
type AlertSink interface {
	Consume(rep SlideReport)
}

// AddAlertSink registers a sink notified after every processed slide,
// except one withheld for a rewind (SlideReport.Rewind). A sink keyed by
// sequence numbers takes replayed slides too; any other skips them
// (SlideReport.Replay).
func (s *System) AddAlertSink(sink AlertSink) {
	s.sinks = append(s.sinks, sink)
}

// notifySinks pushes a completed slide report to every registered sink.
func (s *System) notifySinks(rep SlideReport) {
	for _, sink := range s.sinks {
		sink.Consume(rep)
	}
}

// WriterSink renders every recognized alert to w, one per line with an
// optional prefix — the shared formatting that used to be duplicated
// across the command-line drivers. It is safe for use from one pipeline
// goroutine; the mutex only guards against a driver also writing
// through it at shutdown.
type WriterSink struct {
	mu     sync.Mutex
	w      io.Writer
	prefix string
	alerts int
}

// NewWriterSink returns a sink printing alerts to w, each line prefixed
// with prefix.
func NewWriterSink(w io.Writer, prefix string) *WriterSink {
	return &WriterSink{w: w, prefix: prefix}
}

// Consume prints the slide's alerts, unless the slide is a replay
// whose alerts were printed before.
func (s *WriterSink) Consume(rep SlideReport) {
	if len(rep.Alerts) == 0 || rep.Replay {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range rep.Alerts {
		fmt.Fprintf(s.w, "%s%s\n", s.prefix, a)
	}
	s.alerts += len(rep.Alerts)
}

// Alerts returns how many alerts the sink has printed.
func (s *WriterSink) Alerts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alerts
}
