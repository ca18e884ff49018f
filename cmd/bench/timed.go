package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// env is what every run of one invocation shares.
type env struct {
	root   string // checkout root
	bin    string // the built cmd/serve
	digest string // of bin
}

// sut is the system under test brought up for one workload: the writer,
// the optional replica, the accepted feed connection and the subscriber.
type sut struct {
	writer  *child
	replica *child
	feed    net.Conn
	sub     *subscriber
	subDone chan error
	hangUp  context.CancelFunc
}

// bringUp starts the children of workload w, accepts the writer's feed
// connection, subscribes, and returns when the system is ready for load:
// the feed handshake is read and the subscription is registered.
func bringUp(ctx context.Context, e env, w workload, seed int64, dir string) (*sut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	logDir := filepath.Join(dir, "alertlog")
	flags := append(w.serveFlags(seed), "-feed", ln.Addr().String(), "-alert-log", logDir)
	s := &sut{}
	ok := false
	defer func() {
		if !ok {
			s.tearDown()
		}
	}()
	if s.writer, err = startChild(e.bin, filepath.Join(dir, "writer.log"), flags...); err != nil {
		return nil, err
	}
	if w.Replica {
		s.replica, err = startChild(e.bin, filepath.Join(dir, "replica.log"),
			"-replica", "-alert-log", logDir, "-sub-queue", fmt.Sprint(subQueue))
		if err != nil {
			return nil, err
		}
	}

	// The writer dials the feed before it serves HTTP and greets with a
	// "RESUME -1" line, as feed.ReconnectingClient always does.
	type dialled struct {
		conn net.Conn
		err  error
	}
	accepted := make(chan dialled, 1)
	go func() {
		conn, err := ln.Accept() // the deferred ln.Close releases it
		if err == nil {
			_, err = bufio.NewReader(conn).ReadString('\n')
		}
		accepted <- dialled{conn, err}
	}()
	select {
	case d := <-accepted:
		s.feed = d.conn
		if d.err != nil {
			return nil, fmt.Errorf("feed handshake: %w", d.err)
		}
	case <-s.writer.done:
		return nil, fmt.Errorf("writer exited during start-up (see %s)", s.writer.log.Name())
	case <-ctx.Done():
		return nil, fmt.Errorf("writer never dialled the feed: %w", ctx.Err())
	}
	if err := s.writer.waitHTTP(ctx); err != nil {
		return nil, err
	}
	front := s.writer
	if s.replica != nil {
		if err := s.replica.waitHTTP(ctx); err != nil {
			return nil, err
		}
		front = s.replica
	}

	subCtx, hangUp := context.WithCancel(context.Background())
	s.hangUp = hangUp
	s.sub = &subscriber{url: "http://" + front.addr + "/events"}
	s.subDone = make(chan error, 1)
	go func() { s.subDone <- s.sub.run(subCtx) }()
	for {
		var h replicaHealthz // both kinds of /healthz carry "hub"
		if err := front.healthz(&h); err != nil {
			return nil, err
		}
		if h.Hub.Subscribers > 0 {
			break
		}
		select {
		case err := <-s.subDone:
			s.subDone <- err // tearDown waits for it
			return nil, fmt.Errorf("subscriber: %v", err)
		case <-ctx.Done():
			return nil, fmt.Errorf("subscription never registered: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	ok = true
	return s, nil
}

// tearDown hangs up the subscriber, closes the feed and stops the
// children, returning what they cost.
func (s *sut) tearDown() []usage {
	if s.hangUp != nil {
		s.hangUp()
		<-s.subDone
	}
	if s.feed != nil {
		s.feed.Close() // the sender closes it after the last byte; this is the unsent case
	}
	var out []usage
	for _, c := range []*child{s.replica, s.writer} {
		if c != nil {
			out = append(out, c.stop())
		}
	}
	return out
}

// sendLog is what the generator did: when each fix was (due to be)
// sent, and how late the generator ran.
type sendLog struct {
	t0 time.Time
	// due returns fix i's send time as an offset from t0: on an open
	// loop the scheduled time, on a closed loop the moment its write was
	// issued. i == fixes is the end of the stream (the FIN).
	due func(i int) time.Duration
	// lagMS is, on an open loop, how far behind schedule each line was
	// written.
	lagMS []float64
	end   time.Duration // all bytes written and the connection closed
}

// sendClosed writes the input as fast as the socket drains, one write
// per slide, and closes the connection.
func sendClosed(conn net.Conn, in *input) (*sendLog, error) {
	type mark struct {
		fix int
		at  time.Duration
	}
	var marks []mark
	log := &sendLog{t0: time.Now()}
	lo := 0
	for _, hi := range in.closer {
		if hi == lo {
			continue
		}
		marks = append(marks, mark{lo, time.Since(log.t0)})
		if _, err := conn.Write(in.chunk(lo, hi)); err != nil {
			return nil, fmt.Errorf("feed write: %w", err)
		}
		lo = hi
	}
	err := conn.Close()
	log.end = time.Since(log.t0)
	log.due = func(i int) time.Duration {
		if i >= in.fixes() {
			return log.end
		}
		k := sort.Search(len(marks), func(k int) bool { return marks[k].fix > i })
		return marks[k-1].at
	}
	return log, err
}

// pacedSchedule returns the open loop's due time of fix i, as an offset
// from the first write. The schedule has two rates: the first w.Warmup
// of stream time runs at w.WarmupRho, the rest at w.Rho. An index past
// the last fix gets the last fix's time.
func pacedSchedule(in *input, w workload) func(i int) time.Duration {
	warm := w.Warmup.Seconds()
	return func(i int) time.Duration {
		tau := float64(in.unix[min(i, in.fixes()-1)] - in.unix[0])
		s := tau / w.Rho
		if w.Warmup > 0 {
			s = min(tau, warm)/w.WarmupRho + max(tau-warm, 0)/w.Rho
		}
		return time.Duration(s * float64(time.Second))
	}
}

// sendPaced writes every line at its due time, whatever the reader is
// doing, and closes the connection.
func sendPaced(conn net.Conn, in *input, w workload) (*sendLog, error) {
	log := &sendLog{t0: time.Now(), lagMS: make([]float64, 0, in.fixes()), due: pacedSchedule(in, w)}
	for i, n := 0, in.fixes(); i < n; {
		now := time.Since(log.t0)
		j := i
		for j < n && log.due(j) <= now {
			log.lagMS = append(log.lagMS, float64(now-log.due(j))/float64(time.Millisecond))
			j++
		}
		if j == i {
			time.Sleep(log.due(i) - now)
			continue
		}
		if _, err := conn.Write(in.chunk(i, j)); err != nil {
			return nil, fmt.Errorf("feed write: %w", err)
		}
		i = j
	}
	err := conn.Close()
	log.end = time.Since(log.t0)
	return log, err
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repetition is one measurement: the system under test brought up,
// loaded with the whole input, checked, and stopped. Times and rates
// are as measured; runTimed reports them at nominal box speed.
type repetition struct {
	BoxSpeed         float64 // share of nominal, mean of the calibrations before and after
	MeasuredS        float64 // first measured byte to the last slide closed and the last alert read
	FixesPerS        float64
	CPUSPerMfix      float64
	PeakRSSMiB       float64
	Latency          summary // ms
	OfferedFixesPerS float64
	SendLagP95MS     float64 // open loop only
	// Valid is false when an open loop's generator ran more than
	// maxSendLagMS late at p95: it then measured its own scheduling.
	Valid         bool
	Redials       int
	Verdict       verdict
	ScannerDrops  int
	IngestDrops   int
	HubDrops      int
	OtherFailures int // watchdog trips, quarantines, log append errors, replica skips

	LatencyMS []float64 // the samples behind Latency, in slide order
}

func (r repetition) failed() int {
	return r.Verdict.failed() + r.ScannerDrops + r.IngestDrops + r.HubDrops + r.OtherFailures
}

// timedDetail is what a timed run reports beside the contract's result
// line: its input, and every repetition.
type timedDetail struct {
	Fixes, Slides, Alerts int
	InputS                float64 // generate or load input and reference
	CacheHit              bool
	SetupS                []float64 // every bring-up, measured or not
	Reps                  []repetition
	Latency               summary // ms at nominal box speed, over the samples of every repetition
	// LatencyP95MS is the tail latency, printed and stored but not an
	// end-to-end metric of BENCHMARK.json: on the reference box its
	// inter-quartile spread over ten runs was 14–34 % on the open loops
	// whatever the estimator, above any bound the contract allows.
	LatencyP95MS float64
}

// openLoopSegments is how many equal parts an open loop's measured
// phase is cut into for the tail latency.
const openLoopSegments = 5

// maxSendLagMS is the validity limit of an open-loop run: a generator
// later than this at p95 measured its own scheduling, not the system.
const maxSendLagMS = 5

// minBringUps is the least number of times a timed run brings the
// system under test from exec to ready; setup_s is the median. A closed
// loop measures after every one of its workload.Reps bring-ups and
// reports each metric's median over the repetitions: on a shared box a
// repetition's CPU cost varies by a tenth from one process to the next,
// and several short lives average that where one long life cannot. An
// open loop, whose warm-up is slow, measures once, after the last.
const minBringUps = 3

// runTimed makes one timed run of workload w: input, then bringUps
// times set-up (and load, and check).
func runTimed(e env, w workload, seed int64, seconds float64) (result, timedDetail, error) {
	var d timedDetail
	t := time.Now()
	in, ref, hit, err := loadInput(e, w, seed, w.streamDuration(seconds))
	if err != nil {
		return result{}, d, err
	}
	d.InputS, d.CacheHit = time.Since(t).Seconds(), hit
	d.Fixes, d.Slides, d.Alerts = in.fixes(), in.slides(), ref.total()

	runDir := filepath.Join(e.root, buildDir, "run", w.Name)
	if err := os.RemoveAll(runDir); err != nil {
		return result{}, d, err
	}
	bringUps := max(w.Reps, minBringUps)
	var setups []float64 // at nominal box speed
	speed := boxSpeed()
	for c := 0; c < bringUps; c++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		t := time.Now()
		s, err := bringUp(ctx, e, w, seed, filepath.Join(runDir, fmt.Sprintf("cycle-%d", c)))
		cancel()
		if err != nil {
			return result{}, d, err
		}
		setup := time.Since(t).Seconds()
		d.SetupS = append(d.SetupS, setup)
		setups = append(setups, setup*speed)
		if (w.Open && c < bringUps-1) || (!w.Open && c >= w.Reps) {
			s.tearDown()
			continue
		}
		rep, err := measure(w, in, ref, s)
		if err != nil {
			return result{}, d, err
		}
		after := boxSpeed()
		rep.BoxSpeed, speed = (speed+after)/2, after
		d.Reps = append(d.Reps, rep)
	}

	res := result{Attempted: len(d.Reps) * (in.fixes() + ref.total())}
	for _, r := range d.Reps {
		res.Failed += r.failed()
	}
	// Each metric is the median over the repetitions of its value at
	// nominal box speed (see calibrate.go); memory does not scale with
	// speed. The latency median is over the samples of all repetitions
	// together, each scaled by its repetition's speed, and so is a closed
	// loop's (ungated) 95th percentile. An open loop's is the median of
	// the 95th percentiles of the fifths of its measured phase: there one
	// stall of the box delays the twenty slides queued behind it, which
	// is the whole tail of a pooled percentile and one segment of five.
	over := func(f func(repetition) float64) float64 {
		vals := make([]float64, len(d.Reps))
		for i, r := range d.Reps {
			vals[i] = f(r)
		}
		return median(vals)
	}
	var lat, tails []float64
	for _, r := range d.Reps {
		scaled := make([]float64, len(r.LatencyMS))
		for i, ms := range r.LatencyMS {
			scaled[i] = ms * r.BoxSpeed
		}
		lat = append(lat, scaled...)
		for i := 0; w.Open && i < openLoopSegments; i++ {
			if seg := scaled[len(scaled)*i/openLoopSegments : len(scaled)*(i+1)/openLoopSegments]; len(seg) > 0 {
				tails = append(tails, percentile(sortedCopy(seg), 95))
			}
		}
	}
	if !w.Open {
		tails = []float64{percentile(sortedCopy(lat), 95)}
	}
	d.Latency = summarize(lat)
	d.LatencyP95MS = median(tails)
	res.Metrics = map[string]metric{
		"setup_s": {median(setups), "s"},
		"fixes_per_s": {over(func(r repetition) float64 {
			if w.Open { // the schedule sets it, not the box
				return r.FixesPerS
			}
			return r.FixesPerS / r.BoxSpeed
		}), "1/s"},
		"sut_cpu_s_per_mfix":   {over(func(r repetition) float64 { return r.CPUSPerMfix * r.BoxSpeed }), "s"},
		"alert_latency_p50_ms": {d.Latency.Median, "ms"},
		"peak_rss_mb":          {over(func(r repetition) float64 { return r.PeakRSSMiB }), "MiB"},
	}
	res.Correct = res.Failed == 0
	return res, d, nil
}

// measure loads the brought-up system with the whole input, waits for
// the last slide and the last alert, stops the system and checks what
// the subscriber read.
func measure(w workload, in *input, ref *reference, s *sut) (repetition, error) {
	var rep repetition
	stopped := false
	defer func() {
		if !stopped {
			s.tearDown()
		}
	}()
	warmFixes := in.warmFixes(w)
	if w.Replica {
		// Re-dial once half of the measured phase's alerts have arrived.
		warm := 0
		for k, sl := range ref.Slides {
			if in.closer[k] < warmFixes {
				warm += len(sl.Alerts)
			}
		}
		s.sub.redialAfter(max(warm+(ref.total()-warm)/2, 1))
	}

	var log *sendLog
	var err error
	if w.Open {
		log, err = sendPaced(s.feed, in, w)
	} else {
		log, err = sendClosed(s.feed, in)
	}
	s.feed = nil // closed by the sender
	if err != nil {
		return rep, err
	}

	// The stream is consumed when the writer has closed every slide, and
	// delivered when the subscriber has read everything published.
	var wh writerHealth
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := s.writer.healthz(&wh); err != nil {
			return rep, fmt.Errorf("writer /healthz: %w (see %s)", err, s.writer.log.Name())
		}
		if wh.StreamEnd || wh.Slides >= in.slides() {
			break
		}
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("writer closed %d of %d slides in 60 s", wh.Slides, in.slides())
		}
		time.Sleep(5 * time.Millisecond)
	}
	consumed := time.Since(log.t0)
	if err := s.writer.healthz(&wh); err != nil { // slides and published settle together
		return rep, err
	}
	for deadline := time.Now().Add(5 * time.Second); s.sub.count() < int(wh.Hub.Published) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	got := s.sub.snapshot()
	done := consumed
	if n := len(got); n > 0 {
		done = max(done, got[n-1].At.Sub(log.t0))
	}

	measuredFixes := float64(in.fixes() - warmFixes)
	rep.MeasuredS = (done - log.due(warmFixes)).Seconds()
	rep.FixesPerS = measuredFixes / rep.MeasuredS
	rep.OfferedFixesPerS = measuredFixes / (log.end - log.due(warmFixes)).Seconds()
	if w.Open {
		rep.SendLagP95MS = percentile(sortedCopy(log.lagMS), 95)
	}
	rep.Valid = rep.SendLagP95MS <= maxSendLagMS

	rep.OtherFailures = wh.Health.WatchdogTrips + wh.Health.Quarantined + wh.Health.Failed + int(wh.Hub.LogAppendErrors)
	rep.IngestDrops = wh.Health.IngestOverflow
	for cause, n := range wh.Health.DropsByCause {
		if cause != "overflow" {
			rep.ScannerDrops += n
		}
	}
	rep.HubDrops = int(wh.Hub.Dropped)
	if s.replica != nil {
		var rh replicaHealthz
		if err := s.replica.healthz(&rh); err != nil {
			return rep, err
		}
		rep.HubDrops += int(rh.Hub.Dropped)
		rep.OtherFailures += int(rh.Replica.Skipped)
	}
	rep.Redials = s.sub.redials()
	uses := s.tearDown()
	stopped = true
	var cpu time.Duration
	for _, u := range uses {
		cpu += u.cpu
		rep.PeakRSSMiB = max(rep.PeakRSSMiB, u.rssMiB)
	}
	// CPU covers the children's whole life, warm-up included: rusage
	// cannot split it.
	rep.CPUSPerMfix = cpu.Seconds() / (float64(in.fixes()) / 1e6)

	// One latency sample per slide that has alerts and was closed in the
	// measured phase, ending when its last alert is read. Per slide, not
	// per envelope: a burst of a thousand alerts in one slide would
	// otherwise outvote a hundred slides. A slide whose alerts never all
	// arrived waited at least until the run ended.
	//
	// On an open loop the sample starts when the line that closed the
	// slide was due. A closed loop has no due time, and how far ahead of
	// the reader the writer runs is for the kernel's socket buffers to
	// decide; the sample there starts when the previous alert-bearing
	// slide was delivered and is divided by the slides in between: the
	// time a slide's alerts take once the saturated system starts on it.
	lastRead := make([]time.Duration, in.slides())
	arrived := make([]int, in.slides())
	for _, r := range got {
		k := int(r.Env.Slide.Sub(in.query[0]) / w.Slide)
		if r.Env.Marker == "" && k >= 0 && k < in.slides() {
			arrived[k]++
			lastRead[k] = max(lastRead[k], r.At.Sub(log.t0))
		}
	}
	var lat []float64
	prev, prevRead := -1, time.Duration(0)
	for k, sl := range ref.Slides {
		if len(sl.Alerts) == 0 || in.closer[k] < warmFixes {
			continue
		}
		end := done
		if arrived[k] >= len(sl.Alerts) {
			end = lastRead[k]
		}
		sample := end - log.due(in.closer[k])
		if !w.Open {
			sample = (end - prevRead) / time.Duration(k-prev)
			prev, prevRead = k, end
		}
		lat = append(lat, float64(sample)/float64(time.Millisecond))
	}
	rep.LatencyMS = lat
	rep.Latency = summarize(slices.Clone(lat))
	rep.Verdict = check(ref, got)
	return rep, nil
}
