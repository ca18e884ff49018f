package serve

import (
	"fmt"
	"math/rand"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/maritime"
)

var t0 = time.Date(2015, 3, 23, 12, 0, 0, 0, time.UTC)

// mkAlerts builds n alerts for the given vessel and CE.
func mkAlerts(n int, vessel uint32, ce, area string) []maritime.Alert {
	out := make([]maritime.Alert, n)
	for i := range out {
		out[i] = maritime.Alert{CE: ce, AreaID: area, Time: t0.Add(time.Duration(i) * time.Minute), Vessel: vessel}
	}
	return out
}

// drain consumes every envelope until the subscriber closes.
func drain(s *Subscriber, out *[]Envelope, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		e, ok := s.Next()
		if !ok {
			return
		}
		*out = append(*out, e)
	}
}

func TestHubFanoutDeliversToAll(t *testing.T) {
	h := NewHub(64)
	var wg sync.WaitGroup
	subs := make([]*Subscriber, 3)
	got := make([][]Envelope, 3)
	for i := range subs {
		subs[i] = h.Subscribe(Filter{}, 16)
		wg.Add(1)
		go drain(subs[i], &got[i], &wg)
	}
	h.Publish(t0, mkAlerts(5, 1, maritime.CEIllegalShipping, "a1"))
	h.Publish(t0.Add(time.Minute), mkAlerts(3, 2, maritime.CEDangerousShipping, "a2"))
	waitFor(t, func() bool {
		for i := range subs {
			if subs[i].Stats().Delivered != 8 {
				return false
			}
		}
		return true
	})
	for i := range subs {
		subs[i].Close()
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) != 8 {
			t.Fatalf("subscriber %d got %d envelopes, want 8", i, len(got[i]))
		}
		for j := 1; j < len(got[i]); j++ {
			if got[i][j].Seq != got[i][j-1].Seq+1 {
				t.Fatalf("subscriber %d: non-contiguous seqs %d → %d", i, got[i][j-1].Seq, got[i][j].Seq)
			}
		}
	}
	st := h.Stats()
	if st.Published != 8 || st.Delivered != 24 || st.Dropped != 0 {
		t.Fatalf("hub stats = %+v, want published 8 delivered 24 dropped 0", st)
	}
}

// waitFor polls cond for up to 2 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestSlowSubscriberIsolation(t *testing.T) {
	h := NewHub(4096)
	const queueCap = 8
	slow := h.Subscribe(Filter{}, queueCap) // never consumed
	fast := h.Subscribe(Filter{}, 4096)
	var wg sync.WaitGroup
	var got []Envelope
	wg.Add(1)
	go drain(fast, &got, &wg)

	const total = 1000
	start := time.Now()
	for i := 0; i < total; i++ {
		h.Publish(t0.Add(time.Duration(i)*time.Second), mkAlerts(1, uint32(i), maritime.CESuspicious, "a1"))
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("publishing with a blocked subscriber took %s — the hub must never block", elapsed)
	}
	waitFor(t, func() bool { return fast.Stats().Delivered == total })
	fast.Close()
	wg.Wait()

	if len(got) != total {
		t.Fatalf("fast subscriber got %d/%d envelopes", len(got), total)
	}
	ss := slow.Stats()
	if ss.Dropped != total-queueCap {
		t.Fatalf("slow subscriber dropped %d, want %d", ss.Dropped, total-queueCap)
	}
	if ss.Pending != queueCap {
		t.Fatalf("slow subscriber pending %d, want %d", ss.Pending, queueCap)
	}
	// Drop-oldest: what remains must be the newest queueCap envelopes.
	for i := 0; i < queueCap; i++ {
		e, ok := slow.Next()
		if !ok {
			t.Fatal("queue ended early")
		}
		if want := uint64(total - queueCap + i + 1); e.Seq != want {
			t.Fatalf("retained envelope %d has seq %d, want %d (drop-oldest)", i, e.Seq, want)
		}
	}
	slow.Close()
	if st := h.Stats(); st.Dropped != total-queueCap {
		t.Fatalf("hub total dropped = %d, want %d", st.Dropped, total-queueCap)
	}
}

func TestFilterMatch(t *testing.T) {
	mk := func(vessel uint32, ce, area string) maritime.Alert {
		return maritime.Alert{CE: ce, AreaID: area, Time: t0, Vessel: vessel}
	}
	cases := []struct {
		name  string
		query string
		alert maritime.Alert
		want  bool
	}{
		{"empty matches all", "", mk(1, maritime.CESuspicious, "a1"), true},
		{"mmsi hit", "mmsi=1,2", mk(2, maritime.CEIllegalShipping, "a1"), true},
		{"mmsi miss", "mmsi=1,2", mk(3, maritime.CEIllegalShipping, "a1"), false},
		{"mmsi excludes durative", "mmsi=1", mk(0, maritime.CESuspicious, "a1"), false},
		{"ce hit", "ce=suspicious,illegalFishing", mk(0, maritime.CEIllegalFishing, "a1"), true},
		{"ce miss", "ce=suspicious", mk(5, maritime.CEDangerousShipping, "a1"), false},
		{"area hit", "area=a1", mk(1, maritime.CESuspicious, "a1"), true},
		{"area miss", "area=a2", mk(1, maritime.CESuspicious, "a1"), false},
		{"conjunction", "mmsi=1&ce=illegalShipping&area=a1", mk(1, maritime.CEIllegalShipping, "a1"), true},
		{"conjunction one miss", "mmsi=1&ce=illegalShipping&area=a2", mk(1, maritime.CEIllegalShipping, "a1"), false},
		// A list of only separators is empty: it constrains nothing, so
		// even a vessel-less alert (excluded by any MMSI set) matches.
		{"empty mmsi list matches all", "mmsi=,", mk(0, maritime.CESuspicious, "a1"), true},
		{"blank mmsi list matches all", "mmsi=%20,%20,", mk(0, maritime.CESuspicious, "a1"), true},
		{"empty ce list matches all", "ce=,", mk(0, maritime.CESuspicious, "a1"), true},
		{"empty area list matches all", "area=,", mk(0, maritime.CESuspicious, "a1"), true},
	}
	for _, tc := range cases {
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f, err := ParseFilter(q)
		if err != nil {
			t.Fatalf("%s: ParseFilter: %v", tc.name, err)
		}
		if got := f.Match(tc.alert); got != tc.want {
			t.Errorf("%s: Match = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestParseFilterRejectsGarbage(t *testing.T) {
	for _, raw := range []string{"mmsi=abc", "mmsi=-3", "ce=noSuchEvent"} {
		q, _ := url.ParseQuery(raw)
		if _, err := ParseFilter(q); err == nil {
			t.Errorf("ParseFilter(%q) accepted garbage", raw)
		}
	}
}

func TestHubFilteredFanout(t *testing.T) {
	h := NewHub(64)
	byVessel := h.Subscribe(Filter{MMSI: map[uint32]struct{}{7: {}}}, 64)
	byCE := h.Subscribe(Filter{CEs: map[string]struct{}{maritime.CESuspicious: {}}}, 64)

	h.Publish(t0, []maritime.Alert{
		{CE: maritime.CEIllegalShipping, AreaID: "a1", Time: t0, Vessel: 7},
		{CE: maritime.CEIllegalShipping, AreaID: "a1", Time: t0, Vessel: 8},
		{CE: maritime.CESuspicious, AreaID: "a2", Time: t0},
	})

	if e, ok := byVessel.Next(); !ok || e.Alert.Vessel != 7 {
		t.Fatalf("vessel filter delivered %+v", e)
	}
	if st := byVessel.Stats(); st.Pending != 0 {
		t.Fatalf("vessel filter has %d pending, want 0", st.Pending)
	}
	if e, ok := byCE.Next(); !ok || e.Alert.CE != maritime.CESuspicious {
		t.Fatalf("ce filter delivered %+v", e)
	}
	byVessel.Close()
	byCE.Close()
}

// TestSubscribeUnsubscribeRace exercises concurrent subscribe, consume,
// close and publish; run under -race this is the regression test for
// hub locking.
func TestSubscribeUnsubscribeRace(t *testing.T) {
	h := NewHub(256)
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Publish(t0.Add(time.Duration(i)*time.Second), mkAlerts(3, uint32(i%5), maritime.CESuspicious, "a1"))
			i++
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := h.Subscribe(Filter{}, 8)
				for k := 0; k < j%4; k++ {
					if _, _, timedOut := s.NextTimeout(time.Millisecond); timedOut {
						break
					}
				}
				if j%2 == 0 {
					go s.Close() // racing close from another goroutine
				}
				s.Close()
				_ = h.Stats()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	pubWG.Wait()
	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("%d subscribers leaked", st.Subscribers)
	}
}

func TestRingSinceAndLast(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 12; i++ {
		r.Push(Envelope{Seq: uint64(i)})
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	last := r.Last(3)
	if len(last) != 3 || last[0].Seq != 10 || last[2].Seq != 12 {
		t.Fatalf("Last(3) = %+v", last)
	}
	if got := r.Last(0); len(got) != 8 {
		t.Fatalf("Last(0) returned %d, want all 8", len(got))
	}
	since := r.Since(9)
	if len(since) != 3 || since[0].Seq != 10 {
		t.Fatalf("Since(9) = %+v", since)
	}
	if got := r.Since(2); len(got) != 8 {
		t.Fatalf("Since(2) must cap at retention, got %d", len(got))
	}
	if got := r.Since(12); got != nil {
		t.Fatalf("Since(12) = %+v, want nil", got)
	}
}

func TestSubscribeFromReplaysBeforeLive(t *testing.T) {
	h := NewHub(64)
	h.Publish(t0, mkAlerts(5, 1, maritime.CESuspicious, "a1")) // seqs 1..5
	s := h.SubscribeFrom(Filter{}, 64, 2)
	h.Publish(t0.Add(time.Minute), mkAlerts(2, 1, maritime.CESuspicious, "a1")) // seqs 6,7
	var seqs []uint64
	for i := 0; i < 5; i++ {
		e, ok := s.Next()
		if !ok {
			t.Fatal("stream ended early")
		}
		seqs = append(seqs, e.Seq)
	}
	want := []uint64{3, 4, 5, 6, 7}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("replay order = %v, want %v", seqs, want)
		}
	}
	s.Close()
}

func TestNextTimeoutHeartbeat(t *testing.T) {
	h := NewHub(8)
	s := h.Subscribe(Filter{}, 8)
	defer s.Close()
	start := time.Now()
	_, ok, timedOut := s.NextTimeout(20 * time.Millisecond)
	if ok || !timedOut {
		t.Fatalf("NextTimeout on empty queue: ok=%v timedOut=%v", ok, timedOut)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("NextTimeout returned before the deadline")
	}
	h.Publish(t0, mkAlerts(1, 1, maritime.CESuspicious, "a1"))
	if _, ok, timedOut := s.NextTimeout(time.Second); !ok || timedOut {
		t.Fatalf("NextTimeout with queued envelope: ok=%v timedOut=%v", ok, timedOut)
	}
}

func TestPublishNothingIsNoop(t *testing.T) {
	h := NewHub(8)
	h.Publish(t0, nil)
	if st := h.Stats(); st.Published != 0 {
		t.Fatalf("published = %d after empty publish", st.Published)
	}
	if got := fmt.Sprint(h.Ring().Len()); got != "0" {
		t.Fatalf("ring len = %s", got)
	}
}

// randFilter draws a filter whose every dimension is either nil (match
// any) or a non-empty subset of the given universe.
func randFilter(rng *rand.Rand, vessels []uint32, ces, areas []string) Filter {
	var f Filter
	if rng.Intn(2) == 0 {
		f.MMSI = map[uint32]struct{}{}
		for len(f.MMSI) == 0 {
			for _, v := range vessels {
				if rng.Intn(3) == 0 {
					f.MMSI[v] = struct{}{}
				}
			}
		}
	}
	pick := func(universe []string) map[string]struct{} {
		if rng.Intn(2) == 0 {
			return nil
		}
		set := map[string]struct{}{}
		for len(set) == 0 {
			for _, s := range universe {
				if rng.Intn(3) == 0 {
					set[s] = struct{}{}
				}
			}
		}
		return set
	}
	f.CEs = pick(ces)
	f.Areas = pick(areas)
	return f
}

// randAlert draws an alert shaped like the pipeline's: durative area CEs
// carry no vessel, pairwise CEs carry two distinct vessels.
func randAlert(rng *rand.Rand, vessels []uint32, ces, areas []string) maritime.Alert {
	a := maritime.Alert{CE: ces[rng.Intn(len(ces))], AreaID: areas[rng.Intn(len(areas))], Time: t0}
	switch a.CE {
	case maritime.CESuspicious, maritime.CEIllegalFishing:
	case maritime.CERendezvous, maritime.CEDarkRendezvous, maritime.CECollisionCourse:
		i := rng.Intn(len(vessels))
		a.Vessel = vessels[i]
		a.Vessel2 = vessels[(i+1+rng.Intn(len(vessels)-1))%len(vessels)]
	default:
		a.Vessel = vessels[rng.Intn(len(vessels))]
	}
	return a
}

// popAll takes everything queued off a subscriber without blocking.
func popAll(s *Subscriber) []Envelope {
	var out []Envelope
	for n := s.Pending(); n > 0; n-- {
		e, _ := s.Next()
		out = append(out, e)
	}
	return out
}

// TestHubDeliversWhatFilterMatchAccepts is the hub's delivery contract
// as a property: across random filters, random publishes and subscribers
// joining (fresh or resuming) and leaving between them, every subscriber
// receives exactly the envelopes published while it was registered (or
// after its resume cursor) that Filter.Match accepts, in sequence order.
// A background goroutine churns throwaway resuming subscribers and reads
// the stats concurrently with every publish; each of those must receive
// a prefix of its filter's accepted stream.
func TestHubDeliversWhatFilterMatchAccepts(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	vessels := []uint32{101, 102, 103, 104, 105, 106}
	ces := []string{maritime.CESuspicious, maritime.CEIllegalFishing, maritime.CEIllegalShipping,
		maritime.CEDangerousShipping, maritime.CERendezvous, maritime.CEDarkRendezvous, maritime.CECollisionCourse}
	areas := []string{"a0", "a1", "a2", "a3"}
	const (
		rounds   = 60
		maxBatch = 8
		capacity = rounds * maxBatch // ring and queues hold everything: no drops, no trims
	)
	h := NewHub(capacity)
	var published []Envelope // published[k-1] has Seq k

	type tracked struct {
		s     *Subscriber
		after uint64 // accepted envelopes with Seq > after are owed
	}
	// check verifies one subscriber's stream against the filter over
	// everything published so far.
	check := func(tr tracked, got []Envelope) {
		t.Helper()
		var want []uint64
		for _, e := range published[tr.after:] {
			if tr.s.filter.Match(e.Alert) {
				want = append(want, e.Seq)
			}
		}
		gotSeqs := make([]uint64, len(got))
		for i, e := range got {
			gotSeqs[i] = e.Seq
		}
		if fmt.Sprint(gotSeqs) != fmt.Sprint(want) {
			t.Fatalf("subscriber %d (filter %+v, after %d): got seqs %v, want %v", tr.s.ID(), tr.s.filter, tr.after, gotSeqs, want)
		}
	}
	join := func() tracked {
		f := randFilter(rng, vessels, ces, areas)
		head := uint64(len(published))
		if rng.Intn(3) == 0 {
			after := uint64(rng.Int63n(int64(head) + 1))
			return tracked{h.SubscribeFrom(f, capacity, after), after}
		}
		return tracked{h.Subscribe(f, capacity), head}
	}

	// Background churn: resuming subscribers from seq 0 against the
	// whole retained history, closed after a random while.
	type churned struct {
		f   Filter
		got []Envelope
	}
	stop := make(chan struct{})
	stopChurn := sync.OnceFunc(func() { close(stop) })
	// A failing check must not leave the churner running or blocked on
	// its one send.
	defer stopChurn()
	churnDone := make(chan []churned, 1)
	crng := rand.New(rand.NewSource(rng.Int63()))
	go func() {
		var out []churned
		for {
			select {
			case <-stop:
				churnDone <- out
				return
			default:
			}
			f := randFilter(crng, vessels, ces, areas)
			s := h.SubscribeFrom(f, capacity, 0)
			_ = h.Stats()
			time.Sleep(time.Duration(crng.Intn(200)) * time.Microsecond)
			out = append(out, churned{f, popAll(s)})
			s.Close()
		}
	}()

	live := make([]tracked, 200)
	for i := range live {
		live[i] = join()
	}
	for r := 0; r < rounds; r++ {
		alerts := make([]maritime.Alert, 1+rng.Intn(maxBatch))
		for i := range alerts {
			alerts[i] = randAlert(rng, vessels, ces, areas)
		}
		h.Publish(t0.Add(time.Duration(r)*time.Minute), alerts)
		published = append(published, h.Ring().Since(uint64(len(published)))...)
		if len(published) != int(h.Stats().Published) {
			t.Fatalf("ring holds %d envelopes, published %d", len(published), h.Stats().Published)
		}
		// Leave and join between publishes.
		for k := rng.Intn(8); k > 0 && len(live) > 0; k-- {
			i := rng.Intn(len(live))
			check(live[i], popAll(live[i].s))
			live[i].s.Close()
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for k := rng.Intn(8); k > 0; k-- {
			live = append(live, join())
		}
	}
	stopChurn()
	for _, c := range <-churnDone {
		var want []uint64
		for _, e := range published {
			if c.f.Match(e.Alert) {
				want = append(want, e.Seq)
			}
		}
		if len(c.got) > len(want) {
			t.Fatalf("churned subscriber (filter %+v) got %d envelopes, only %d accepted", c.f, len(c.got), len(want))
		}
		for i, e := range c.got {
			if e.Seq != want[i] {
				t.Fatalf("churned subscriber (filter %+v): envelope %d has seq %d, want %d", c.f, i, e.Seq, want[i])
			}
		}
	}
	for _, tr := range live {
		check(tr, popAll(tr.s))
		tr.s.Close()
	}
	if st := h.Stats(); st.Subscribers != 0 || st.Dropped != 0 {
		t.Fatalf("hub stats after the run = %+v, want no subscribers and no drops", st)
	}
}
