package fleetsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"
)

// runDigest hashes a simulator's full output: every fix of Run() and
// every ground-truth episode, in order.
func runDigest(s *Simulator) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, f := range s.Run() {
		put(uint64(f.MMSI))
		put(math.Float64bits(f.Pos.Lon))
		put(math.Float64bits(f.Pos.Lat))
		put(uint64(f.Time.UnixNano()))
	}
	for _, e := range s.Truth() {
		put(uint64(e.Kind))
		put(uint64(e.MMSI))
		put(uint64(e.MMSI2))
		h.Write([]byte(e.AreaID))
		put(math.Float64bits(e.Near.Lon))
		put(math.Float64bits(e.Near.Lat))
		put(uint64(e.Start.UnixNano()))
		put(uint64(e.End.UnixNano()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunDigestPinned pins the simulator's output bytes for two small
// configurations, with and without scripted pairs, so a change to how
// the simulator is built (itineraries built on first use instead of up
// front) cannot silently change the stream the benchmark feeds.
func TestRunDigestPinned(t *testing.T) {
	base := DefaultConfig()
	base.Vessels = 60
	base.Duration = 2 * time.Hour
	pairs := base
	pairs.Seed = 11
	pairs.NumAreas = 60
	pairs.RendezvousPairs = 2
	pairs.DarkPairs = 1
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"base", base, "37f294407bbda8c53f20e50ad0b6523c27424eb0d109c03cc6f20726baabf02d"},
		{"pairs", pairs, "8a989a8b5fe4f57a7d1cf6a254fa61ca74b720ab901cffd3c605a1fd1fcc7d6e"},
	} {
		s := NewSimulator(c.cfg)
		if len(s.Truth()) == 0 {
			t.Fatalf("%s: no ground-truth episodes; the digest would not cover them", c.name)
		}
		if got := runDigest(s); got != c.want {
			t.Errorf("%s: Run/Truth digest %s, want %s", c.name, got, c.want)
		}
	}
}
