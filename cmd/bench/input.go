package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/ais"
	"repro/internal/fleetsim"
)

// input is one workload's feed, ready to send: the wire bytes of every
// fix in stream order, one line per fix, and where each line ends.
type input struct {
	data []byte
	// end[i] is the offset just past fix i's line; unix[i] its stream
	// timestamp (the "<unix>" prefix of the line).
	end  []int
	unix []int64
	// closer[k] is the index of the first fix with τ > slide k's query
	// time — the line that closes slide k in the system under test.
	// The last slide has no closer: end of stream closes it, and
	// closer[k] == len(end).
	closer []int
	// query[k] is slide k's query time, on the grid stream.Batcher
	// derives from the first fix.
	query []time.Time
}

func (in *input) fixes() int  { return len(in.end) }
func (in *input) slides() int { return len(in.query) }

// simConfig is the simulator configuration of a workload: genPairs
// selects the generator's world (scripted pairs included) or the world
// cmd/serve rebuilds from -seed/-vessels/-areas, which has no flag for
// pairs. The two share areas, ports and the base fleet.
func simConfig(w workload, seed int64, d time.Duration, genPairs bool) fleetsim.Config {
	cfg := fleetsim.DefaultConfig()
	cfg.Seed = seed
	cfg.Vessels = w.Vessels
	cfg.NumAreas = w.Areas
	cfg.Duration = d
	if genPairs {
		cfg.RendezvousPairs = w.Pairs
		cfg.DarkPairs = w.Pairs
	}
	return cfg
}

// generate simulates the workload's fleet from the seed and encodes it
// as feed-protocol lines ("<unix> !AIVDM…\n"), exactly as feed.Server
// does, in parallel chunks.
func generate(w workload, seed int64, d time.Duration) (*input, error) {
	fixes := fleetsim.NewSimulator(simConfig(w, seed, d, true)).Run()
	if len(fixes) == 0 {
		return nil, fmt.Errorf("workload %s: simulator produced no fixes", w.Name)
	}
	workers := runtime.GOMAXPROCS(0)
	type part struct {
		buf bytes.Buffer
		err error
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	for p := range parts {
		lo, hi := len(fixes)*p/workers, len(fixes)*(p+1)/workers
		wg.Add(1)
		go func(pt *part, lo, hi int) {
			defer wg.Done()
			var num []byte
			for i := lo; i < hi; i++ {
				f := fixes[i]
				lines, err := ais.EncodeSentences(&ais.PositionReport{
					Type: ais.TypePositionA, MMSI: f.MMSI,
					Lon: f.Pos.Lon, Lat: f.Pos.Lat,
					UTCSecond: f.Time.Second(),
				}, "A", i)
				if err != nil || len(lines) != 1 {
					pt.err = fmt.Errorf("encoding fix %d: %d lines, %v", i, len(lines), err)
					return
				}
				num = strconv.AppendInt(num[:0], f.Time.Unix(), 10)
				pt.buf.Write(num)
				pt.buf.WriteByte(' ')
				pt.buf.WriteString(lines[0])
				pt.buf.WriteByte('\n')
			}
		}(&parts[p], lo, hi)
	}
	wg.Wait()

	total := 0
	for p := range parts {
		if parts[p].err != nil {
			return nil, parts[p].err
		}
		total += parts[p].buf.Len()
	}
	data := make([]byte, 0, total)
	for p := range parts {
		data = append(data, parts[p].buf.Bytes()...)
	}
	return indexInput(data, w.Slide)
}

// indexInput finds the line ends and stream timestamps of feed bytes,
// then the slide grid.
func indexInput(data []byte, slide time.Duration) (*input, error) {
	in := &input{data: data}
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		sp := bytes.IndexByte(data[off:], ' ')
		if nl < 0 || sp < 0 || sp > nl {
			return nil, fmt.Errorf("feed bytes: malformed line at offset %d", off)
		}
		ts, err := strconv.ParseInt(string(data[off:off+sp]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("feed bytes: offset %d: %w", off, err)
		}
		off += nl + 1
		in.end = append(in.end, off)
		in.unix = append(in.unix, ts)
	}
	if len(in.end) == 0 {
		return nil, fmt.Errorf("feed bytes: empty")
	}
	in.index(slide)
	return in, nil
}

// index derives the slide grid and each slide's closing fix the way
// stream.Batcher does: the first query time is the first fix's time
// truncated to the slide, plus one slide; a fix belongs to the first
// slide whose query time is not before it.
func (in *input) index(slide time.Duration) {
	step := int64(slide / time.Second)
	q := time.Unix(in.unix[0], 0).UTC().Truncate(slide).Add(slide).Unix()
	last := in.unix[len(in.unix)-1]
	i := 0
	for {
		for i < len(in.unix) && in.unix[i] <= q {
			i++
		}
		in.query = append(in.query, time.Unix(q, 0).UTC())
		in.closer = append(in.closer, i)
		if q >= last {
			return
		}
		q += step
	}
}

// chunk returns the wire bytes of fixes [lo, hi).
func (in *input) chunk(lo, hi int) []byte {
	start := 0
	if lo > 0 {
		start = in.end[lo-1]
	}
	return in.data[start:in.end[hi-1]]
}

// warmFixes is how many leading fixes belong to the workload's warm-up:
// the measured phase begins with the first fix after it. A closed loop
// has none.
func (in *input) warmFixes(w workload) int {
	if !w.Open {
		return 0
	}
	return sort.Search(in.fixes(), func(i int) bool {
		return in.unix[i]-in.unix[0] > int64(w.Warmup/time.Second)
	})
}
