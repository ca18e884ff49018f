package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/ais"
	"repro/internal/alertlog"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/rtec"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// span is one traced call into a layer. Spans of one slide share its
// index; Parent names the span that caused this one ("slide" for the
// stages the driver calls itself).
type span struct {
	Name   string `json:"name"`
	Slide  int    `json:"slide"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the start of the traced run
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(name string, slide int, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{name, slide, parent, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
}

// busy sums the spans of one name and lists their durations in µs.
func (t *tracer) busy(name string) (total time.Duration, us []float64) {
	for _, s := range t.spans {
		if s.Name == name {
			total += time.Duration(s.End - s.Start)
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return total, us
}

// allocCounter reads the process's cumulative heap allocation count —
// cheaply, without stopping the world. Goroutines other than the
// driver's also count, so the traced pipeline runs alone.
type allocCounter struct{ s [1]metrics.Sample }

func newAllocCounter() *allocCounter {
	c := new(allocCounter)
	c.s[0].Name = "/gc/heap/allocs:objects"
	return c
}

func (c *allocCounter) read() uint64 {
	metrics.Read(c.s[:])
	return c.s[0].Value.Uint64()
}

// composedStats is what the hand-composed pipeline counted.
type composedStats struct {
	wall     time.Duration
	perSlide []time.Duration // scan to analytics, per slide
	batches  []stream.Batch

	scanner           ais.ScannerStats
	trackerStats      tracker.Stats
	trackerAllocs     uint64
	trips             int
	events            int
	recognitionAlerts int
	advanceAllocs     uint64
	pairAlerts        int
}

// runComposed re-composes core.System.processLocked's sequence from
// public calls over the input's bytes, in cmd/serve's production
// configuration, recording a span around each call.
func runComposed(w workload, wd world, in *input, tr *tracer) (*reference, composedStats) {
	window := stream.WindowSpec{Range: w.Window, Slide: w.Slide}
	trk := tracker.NewSharded(tracker.DefaultParams(), window, tracker.DefaultShards())
	defer trk.Close()
	trk.EnableSelfHeal(0)
	trk.SetSlideTimeout(watchdog)
	store := mod.New(wd.ports)
	rec := maritime.NewRecognizer(maritime.Config{Window: w.Window}, wd.vessels, wd.areas)
	var tier *analytics.Tier
	if w.Pairwise {
		tier = analytics.New(analytics.Config{EnableCollision: true}, core.PortPolys(wd.ports))
	}
	sc := ais.NewScanner(bytes.NewReader(in.data))
	batcher := stream.NewBatcher(sc, w.Slide)
	ref := &reference{Slides: make([]slideAlerts, 0, in.slides())}
	var st composedStats
	allocs := newAllocCounter()
	count := allocs.read
	type journaled struct {
		events []rtec.Event
		delta  []tracker.CriticalPoint
	}
	var journal []journaled
	var recBase maritime.RecognizerSnapshot
	var storeBase []byte
	begin := time.Now()
	for k := 0; ; k++ {
		slideStart := time.Now()
		t0 := time.Now()
		b, ok := batcher.Next()
		if !ok {
			break
		}
		t1 := time.Now()
		tr.record("stream.Batcher.Next", k, "slide", t0, t1)
		st.batches = append(st.batches, b)

		a0, t0 := count(), time.Now()
		res := trk.Slide(b)
		t1 = time.Now()
		st.trackerAllocs += count() - a0
		tr.record("tracker.Sharded.Slide", k, "slide", t0, t1)

		t0 = time.Now()
		store.Stage(res.Delta)
		t1 = time.Now()
		tr.record("mod.MOD.Stage", k, "slide", t0, t1)
		trips := store.Reconstruct()
		t0 = time.Now()
		tr.record("mod.MOD.Reconstruct", k, "slide", t1, t0)
		store.Load(trips)
		t1 = time.Now()
		tr.record("mod.MOD.Load", k, "slide", t0, t1)
		st.trips += len(trips)

		events := maritime.MEStream(res.Fresh)
		t0 = time.Now()
		tr.record("maritime.MEStream", k, "slide", t1, t0)
		st.events += len(events)

		a0 = count()
		alerts := rec.Advance(b.Query, events, nil).Alerts
		t1 = time.Now()
		st.advanceAllocs += count() - a0
		tr.record("maritime.Recognizer.Advance", k, "slide", t0, t1)
		st.recognitionAlerts += len(alerts)

		if tier != nil {
			pair := tier.Slide(b.Query, res.Fresh)
			t0 = time.Now()
			tr.record("analytics.Tier.Slide", k, "slide", t1, t0)
			st.pairAlerts += len(pair)
			if len(pair) > 0 {
				alerts = append(alerts, pair...)
				slices.SortStableFunc(alerts, maritime.CompareAlerts)
			}
		}
		// What -self-heal adds inside core.System (heal.go): each slide's
		// recognizer and store inputs are journaled, and every
		// DefaultJournalSlides slides both journals re-base on a fresh
		// snapshot of the recognizer and of the whole store.
		t1 = time.Now()
		journal = append(journal, journaled{slices.Clone(events), slices.Clone(res.Delta)})
		if len(journal) >= tracker.DefaultJournalSlides {
			recBase = rec.Snapshot()
			var buf bytes.Buffer
			_ = store.SaveSnapshot(&buf) // an in-memory encode; core ignores its error too
			storeBase = buf.Bytes()
			journal = journal[:0]
		}
		tr.record("core.selfheal.journal", k, "slide", t1, time.Now())

		ref.Slides = append(ref.Slides, slideAlerts{Query: b.Query, Alerts: alerts})
		st.perSlide = append(st.perSlide, time.Since(slideStart))
	}
	st.wall = time.Since(begin)
	_, _ = recBase, storeBase // kept, as core keeps them, until the next re-base
	st.scanner = sc.Stats()
	st.trackerStats = trk.Stats()
	return ref, st
}

// batchSource replays recorded batches as a stream.FixSource.
type batchSource struct {
	batches []stream.Batch
	b, i    int
}

func (s *batchSource) Scan() bool {
	for s.b < len(s.batches) && s.i >= len(s.batches[s.b].Fixes) {
		s.b, s.i = s.b+1, 0
	}
	if s.b >= len(s.batches) {
		return false
	}
	s.i++
	return true
}
func (s *batchSource) Fix() ais.Fix { return s.batches[s.b].Fixes[s.i-1] }
func (s *batchSource) Err() error   { return nil }

// timeScanner measures ais.Scanner.Scan alone over the input's bytes:
// Scan runs once per fix inside Batcher.Next, where a span per call
// would cost more than the call.
func timeScanner(in *input) (time.Duration, uint64) {
	sc := ais.NewScanner(bytes.NewReader(in.data))
	allocs := newAllocCounter()
	a0, t := allocs.read(), time.Now()
	for sc.Scan() {
	}
	return time.Since(t), allocs.read() - a0
}

// timeBatcher measures stream.Batcher.Next alone, over decoded fixes.
func timeBatcher(batches []stream.Batch, slide time.Duration) (time.Duration, int) {
	b := stream.NewBatcher(&batchSource{batches: batches}, slide)
	t := time.Now()
	n := 0
	for {
		if _, ok := b.Next(); !ok {
			return time.Since(t), n
		}
		n++
	}
}

// timeTracker measures the tracking tier alone at a shard count.
func timeTracker(w workload, batches []stream.Batch, shards int) time.Duration {
	trk := tracker.NewSharded(tracker.DefaultParams(), stream.WindowSpec{Range: w.Window, Slide: w.Slide}, shards)
	defer trk.Close()
	t := time.Now()
	for _, b := range batches {
		trk.Slide(b)
	}
	return time.Since(t)
}

// timeFeed measures feed.ReconnectingClient.Scan over a loopback
// connection that a goroutine fills as fast as it drains.
func timeFeed(in *input) (time.Duration, int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	sent := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			sent <- err
			return
		}
		// Read the client's "RESUME" greeting first: closing a socket with
		// unread input resets it, and the client would re-dial.
		if _, err = bufio.NewReader(conn).ReadString('\n'); err == nil {
			_, err = conn.Write(in.data)
		}
		conn.Close()
		sent <- err
	}()
	c, err := feed.DialReconnecting(ln.Addr().String(), feed.DefaultRetryPolicy())
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	t := time.Now()
	n := 0
	for c.Scan() {
		n++
	}
	d := time.Since(t)
	if err := <-sent; err != nil {
		return 0, 0, fmt.Errorf("feed loopback writer: %w", err)
	}
	return d, n, c.Err()
}

// timedLog is the timing decorator around the alert log: it implements
// serve.EnvelopeLog, so Hub.Publish appends through it and the append
// becomes a child span of the publish.
type timedLog struct {
	*alertlog.Log
	tr    *tracer
	slide int

	mu       sync.Mutex
	appended map[uint64]time.Time // seq → its Append returned
}

func (l *timedLog) Append(envs []serve.Envelope) error {
	t0 := time.Now()
	err := l.Log.Append(envs)
	t1 := time.Now()
	l.tr.record("alertlog.Log.Append", l.slide, "serve.Hub.Publish", t0, t1)
	l.mu.Lock()
	for _, e := range envs {
		l.appended[e.Seq] = t1
	}
	l.mu.Unlock()
	return err
}

// servingStats is what the serving trace measured.
type servingStats struct {
	published   int
	hub         serve.HubStats
	tail        alertlog.TailerStats
	deliverUS   []float64 // Hub.Publish call → envelope read off the SSE socket
	tailLagMS   []float64 // Append returned → tailer handed the record to its sink
	undelivered int
}

// traceServing replays the composed pipeline's alerts through the
// serving half — serve.Hub.Publish with the alert log attached, one SSE
// subscriber on a loopback Gateway.Handler, one alertlog.Tailer under
// Run — at the cadence the system under test publishes them: slide k
// goes out when its closing line was due plus the time the pipeline
// took to process it, never before slide k−1 is done.
func traceServing(w workload, wd world, in *input, ref *reference, perSlide []time.Duration, due func(k int) time.Duration, dir string, tr *tracer) (servingStats, error) {
	var st servingStats
	if err := os.RemoveAll(dir); err != nil {
		return st, err
	}
	alog, err := alertlog.Open(dir, alertlog.Options{}) // cmd/serve's defaults: 1 MiB segments, keep 8
	if err != nil {
		return st, err
	}
	defer alog.Close()
	tlog := &timedLog{Log: alog, tr: tr, appended: make(map[uint64]time.Time)}

	idle := core.NewSystem(sysConfig(w, false), wd.vessels, wd.areas, wd.ports)
	defer idle.Close()
	gw := serve.New(idle, serve.Options{SubscriberQueue: subQueue})
	gw.Hub().AttachLog(tlog)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	srv := &http.Server{Handler: gw.Handler()}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed on Close below
		close(served)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	sub := &subscriber{url: "http://" + ln.Addr().String() + "/events"}
	subDone := make(chan error, 1)
	go func() { subDone <- sub.run(ctx) }()

	var tailMu sync.Mutex
	tailed := make(map[uint64]time.Time)
	tailer := alertlog.NewTailer(dir, 0, func(envs []serve.Envelope) {
		now := time.Now()
		tailMu.Lock()
		for _, e := range envs {
			tailed[e.Seq] = now
		}
		tailMu.Unlock()
	}, alertlog.TailOptions{})
	tailDone := make(chan struct{})
	go func() {
		tailer.Run(ctx)
		close(tailDone)
	}()
	stop := func() {
		cancel()
		<-subDone
		<-tailDone
		gw.Hub().Close()
		srv.Close()
		<-served
	}
	for gw.Hub().Totals().Subscribers == 0 {
		select {
		case err := <-subDone:
			subDone <- err
			stop()
			return st, fmt.Errorf("loopback subscriber: %v", err)
		case <-time.After(time.Millisecond):
		}
	}

	// Like the timed run, the latency samples leave out the slides closed
	// during an open loop's warm-up, when alerts are sparse and the
	// tailer backs off.
	warmFixes := in.warmFixes(w)
	warm := make(map[uint64]bool)
	published := make(map[uint64]time.Time)
	var seq uint64
	t0 := time.Now()
	var free time.Duration // when the pipeline goroutine is next idle
	for k, s := range ref.Slides {
		at := max(due(k), free) + perSlide[k]
		free = at
		if len(s.Alerts) == 0 {
			continue
		}
		time.Sleep(at - time.Since(t0))
		tlog.slide = k
		p0 := time.Now()
		gw.Hub().Publish(s.Query, s.Alerts)
		p1 := time.Now()
		tr.record("serve.Hub.Publish", k, "slide", p0, p1)
		for range s.Alerts {
			seq++
			published[seq] = p0
			if in.closer[k] < warmFixes {
				warm[seq] = true
			}
		}
		free += p1.Sub(p0)
	}
	st.published = int(seq)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if sub.count() >= st.published && tailer.Applied() >= seq {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st.hub = gw.Hub().Stats()
	st.tail = tailer.Stats()
	stop()

	for _, r := range sub.snapshot() {
		if p, ok := published[r.Env.Seq]; ok && r.Env.Marker == "" {
			if !warm[r.Env.Seq] {
				st.deliverUS = append(st.deliverUS, float64(r.At.Sub(p))/1e3)
			}
			delete(published, r.Env.Seq)
		}
	}
	st.undelivered = len(published)
	for s, at := range tailed {
		if !warm[s] {
			st.tailLagMS = append(st.tailLagMS, float64(at.Sub(tlog.appended[s]))/1e6)
		}
	}
	st.undelivered += st.published - len(tailed)
	return st, nil
}

// traceCost measures what the tracer's own calls cost on this box: one
// span (two clock reads and an append) and one allocation-counter read.
func traceCost() (perSpan, perAllocRead time.Duration) {
	const n = 20000
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, n)}
	t := time.Now()
	for i := 0; i < n; i++ {
		tr.record("calibration", i, "slide", time.Now(), time.Now())
	}
	perSpan = time.Since(t) / n
	c := newAllocCounter()
	t = time.Now()
	for i := 0; i < n; i++ {
		c.read()
	}
	return perSpan, time.Since(t) / n
}

// runTraced makes the traced run of workload w: the per-layer numbers.
// Nothing here starts a child process; every layer is called from this
// process through its public API.
func runTraced(e env, w workload, seed int64, seconds float64) (result, error) {
	in, cached, _, err := loadInput(e, w, seed, w.streamDuration(seconds))
	if err != nil {
		return result{}, err
	}
	wd := buildWorld(w, seed)
	runtime.GC()

	tr := &tracer{t0: time.Now()}
	composedRef, cs := runComposed(w, wd, in, tr)
	prodRef, prodBusy := runSystem(w, wd, &recorded{slides: cs.batches}, true)
	bareRef, bareBusy := runSystem(w, wd, &recorded{slides: cs.batches}, false)
	mismatches := 0
	for _, other := range []*reference{prodRef, bareRef, cached} {
		if !sameAlerts(composedRef, other) {
			mismatches++
		}
	}

	scanBusy, scanAllocs := timeScanner(in)
	batchD, slidesOut := timeBatcher(cs.batches, w.Slide)
	serial := timeTracker(w, cs.batches, 1)
	sharded := timeTracker(w, cs.batches, runtime.GOMAXPROCS(0))
	feedD, feedFixes, err := timeFeed(in)
	if err != nil {
		return result{}, err
	}

	// The serving trace publishes on the schedule of the timed run: the
	// open-loop due times of each slide's closing line, or back to back
	// on a closed loop.
	due := func(int) time.Duration { return 0 }
	if w.Open {
		sched := pacedSchedule(in, w)
		due = func(k int) time.Duration { return sched(in.closer[k]) }
	}
	dir := filepath.Join(e.root, buildDir, "run", w.Name+"-trace", "alertlog")
	sv, err := traceServing(w, wd, in, composedRef, cs.perSlide, due, dir, tr)
	if err != nil {
		return result{}, err
	}

	tracePath := filepath.Join(e.root, buildDir, "trace-"+w.Name+".json")
	if raw, err := json.Marshal(tr.spans); err != nil {
		return result{}, err
	} else if err := os.WriteFile(tracePath, raw, 0o644); err != nil {
		return result{}, err
	}

	fixes := float64(cs.scanner.Fixes)
	slides := float64(len(cs.perSlide))
	sec := func(d time.Duration) float64 { return d.Seconds() }
	perFix := func(d time.Duration) float64 { return float64(d) / fixes }
	p := func(us []float64, q float64) float64 { return percentile(sortedCopy(us), q) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	nextBusy, _ := tr.busy("stream.Batcher.Next")
	trackBusy, trackUS := tr.busy("tracker.Sharded.Slide")
	stageBusy, _ := tr.busy("mod.MOD.Stage")
	reconBusy, _ := tr.busy("mod.MOD.Reconstruct")
	loadBusy, _ := tr.busy("mod.MOD.Load")
	meBusy, _ := tr.busy("maritime.MEStream")
	advBusy, advUS := tr.busy("maritime.Recognizer.Advance")
	anaBusy, anaUS := tr.busy("analytics.Tier.Slide")
	healBusy, _ := tr.busy("core.selfheal.journal")
	pubBusy, _ := tr.busy("serve.Hub.Publish")
	appBusy, appUS := tr.busy("alertlog.Log.Append")

	// The slide budget: every span the driver recorded around a layer,
	// plus the feed transport's own share per fix, which no in-process
	// span covers. pipeline is the part core.System.ProcessBatch does.
	feedSelf := max(float64(feedD)/float64(max(feedFixes, 1))-perFix(scanBusy), 0)
	feedBusy := time.Duration(feedSelf * fixes)
	modBusy := stageBusy + reconBusy + loadBusy
	pipeline := trackBusy + modBusy + meBusy + advBusy + anaBusy + healBusy
	budget := nextBusy + feedBusy + pipeline + pubBusy
	share := func(d time.Duration) float64 { return ratio(float64(d), float64(budget)) }

	// Tracing cost, computed: the calls the tracer made times what one
	// such call costs here. An A/B of a traced and an untraced pass
	// cannot resolve it: two passes of the same code differ by more.
	perSpan, perAllocRead := traceCost()
	overhead := time.Duration(len(tr.spans))*perSpan + time.Duration(6*len(cs.perSlide))*perAllocRead

	m := map[string]metric{
		"ais.scan_busy_s":                   {sec(scanBusy), "s"},
		"ais.scan_ns_per_fix":               {perFix(scanBusy), "ns"},
		"ais.scan_allocs_per_fix":           {ratio(float64(scanAllocs), fixes), "count"},
		"ais.lines_in":                      {float64(cs.scanner.Lines), "count"},
		"ais.fixes_out":                     {fixes, "count"},
		"ais.dropped_lines":                 {float64(cs.scanner.Dropped()), "count"},
		"feed.scan_ns_per_fix":              {float64(feedD) / float64(max(feedFixes, 1)), "ns"},
		"feed.self_ns_per_fix":              {feedSelf, "ns"},
		"stream.batch_ns_per_fix":           {perFix(batchD), "ns"},
		"stream.slides_out":                 {float64(slidesOut), "count"},
		"tracker.slide_busy_s":              {sec(trackBusy), "s"},
		"tracker.slide_ns_per_fix":          {perFix(trackBusy), "ns"},
		"tracker.slide_p95_us":              {p(trackUS, 95), "us"},
		"tracker.slide_allocs_per_slide":    {ratio(float64(cs.trackerAllocs), slides), "count"},
		"tracker.fixes_in":                  {float64(cs.trackerStats.FixesIn), "count"},
		"tracker.critical_points_out":       {float64(cs.trackerStats.Critical), "count"},
		"tracker.compression_ratio":         {cs.trackerStats.CompressionRatio(), "ratio"},
		"tracker.shard_speedup":             {ratio(float64(serial), float64(sharded)), "ratio"},
		"mod.stage_busy_s":                  {sec(stageBusy), "s"},
		"mod.reconstruct_busy_s":            {sec(reconBusy), "s"},
		"mod.load_busy_s":                   {sec(loadBusy), "s"},
		"mod.trips_out":                     {float64(cs.trips), "count"},
		"maritime.mestream_busy_s":          {sec(meBusy), "s"},
		"maritime.advance_busy_s":           {sec(advBusy), "s"},
		"maritime.advance_p95_us":           {p(advUS, 95), "us"},
		"maritime.advance_allocs_per_slide": {ratio(float64(cs.advanceAllocs), slides), "count"},
		"maritime.events_in":                {float64(cs.events), "count"},
		"maritime.alerts_out":               {float64(cs.recognitionAlerts), "count"},
		"analytics.slide_busy_s":            {sec(anaBusy), "s"},
		"analytics.slide_p95_us":            {p(anaUS, 95), "us"},
		"analytics.alerts_out":              {float64(cs.pairAlerts), "count"},
		"serve.publish_self_busy_s":         {sec(pubBusy - appBusy), "s"},
		"serve.publish_ns_per_alert":        {ratio(float64(pubBusy-appBusy), float64(sv.published)), "ns"},
		"serve.envelopes_published":         {float64(sv.hub.Published), "count"},
		"serve.delivered":                   {float64(sv.hub.Delivered), "count"},
		"serve.dropped":                     {float64(sv.hub.Dropped), "count"},
		"serve.sse_deliver_p50_us":          {p(sv.deliverUS, 50), "us"},
		"serve.sse_deliver_p95_us":          {p(sv.deliverUS, 95), "us"},
		"serve.sse_deliver_p99_us":          {p(sv.deliverUS, 99), "us"},
		"alertlog.append_busy_s":            {sec(appBusy), "s"},
		"alertlog.append_p95_us":            {p(appUS, 95), "us"},
		"alertlog.bytes_appended":           {float64(logBytes(dir)), "bytes"},
		"alertlog.tail_polls":               {float64(sv.tail.Polls), "count"},
		"alertlog.tail_useful_frac":         {ratio(float64(sv.tail.Batches), float64(sv.tail.Polls)), "ratio"},
		"alertlog.tail_lag_p50_ms":          {p(sv.tailLagMS, 50), "ms"},
		"alertlog.tail_lag_p95_ms":          {p(sv.tailLagMS, 95), "ms"},
		"core.process_busy_s":               {sec(prodBusy), "s"},
		"core.selfheal_journal_busy_s":      {sec(healBusy), "s"},
		"core.coverage_frac":                {ratio(float64(pipeline), float64(prodBusy)), "ratio"},
		"core.overhead_frac":                {ratio(float64(prodBusy-bareBusy), float64(bareBusy)), "ratio"},
		"trace.overhead_frac":               {ratio(float64(overhead), float64(cs.wall)), "ratio"},
		"trace.spans":                       {float64(len(tr.spans)), "count"},
		"budget.ais_feed_tracker_frac":      {share(nextBusy + feedBusy + trackBusy), "ratio"},
		"budget.maritime_analytics_frac":    {share(meBusy + advBusy + anaBusy), "ratio"},
		"budget.mod_frac":                   {share(modBusy), "ratio"},
		"budget.core_selfheal_frac":         {share(healBusy), "ratio"},
		"budget.serve_alertlog_frac":        {share(pubBusy), "ratio"},
	}
	res := result{
		Attempted: in.fixes() + composedRef.total(),
		Failed:    mismatches + cs.scanner.Dropped() + int(sv.hub.Dropped) + sv.undelivered,
		Metrics:   m,
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// logBytes sums the sizes of the alert log's segment files.
func logBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir) // an unreadable directory counts as empty
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}
