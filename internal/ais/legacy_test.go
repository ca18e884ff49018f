package ais

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
)

// The allocating string decoder the zero-copy path replaced. It is the
// differential oracle of TestZeroCopyDifferential and FuzzScanner, and
// the baseline of BenchmarkDecode: on every input both decoders must emit
// the same fixes and land every line on the same ScannerStats counter.

// scanLegacy is Scan with every line decoded by the string decoder.
func (s *Scanner) scanLegacy() bool {
	for s.r.Scan() {
		s.stats.Lines++
		if s.lines.tooLong {
			s.lines.tooLong = false
			s.stats.Malformed++
			continue
		}
		line := strings.TrimSpace(s.r.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			s.stats.Blank++
			continue
		}
		if fix, ok := s.consume(line); ok {
			s.fix = fix
			s.stats.Fixes++
			return true
		}
	}
	s.err = s.r.Err()
	return false
}

// consume handles one non-empty line.
func (s *Scanner) consume(line string) (Fix, bool) {
	if i := strings.IndexByte(line, '!'); i >= 0 {
		return s.consumeNMEA(line[:i], line[i:])
	}
	return s.consumeCSV(line)
}

// consumeNMEA parses "<ts> !AIVDM..." lines.
func (s *Scanner) consumeNMEA(prefix, sentence string) (Fix, bool) {
	ts, err := strconv.ParseInt(strings.TrimSpace(prefix), 10, 64)
	if err != nil {
		s.stats.Malformed++
		return Fix{}, false
	}
	sent, err := ParseSentence(sentence)
	if err != nil {
		switch {
		case isErr(err, ErrBadChecksum):
			s.stats.BadChecksum++
		case isErr(err, ErrNotAIVDM):
			s.stats.Unsupported++
		default:
			s.stats.Malformed++
		}
		return Fix{}, false
	}
	return s.pushLegacy(ts, sent)
}

// consumeCSV parses "mmsi,lon,lat,unix-seconds" lines.
func (s *Scanner) consumeCSV(line string) (Fix, bool) {
	parts := strings.Split(line, ",")
	if len(parts) != 4 {
		s.stats.Malformed++
		return Fix{}, false
	}
	mmsi, err1 := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 32)
	lon, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	lat, err3 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	ts, err4 := strconv.ParseInt(strings.TrimSpace(parts[3]), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		s.stats.Malformed++
		return Fix{}, false
	}
	p := geo.Point{Lon: lon, Lat: lat}
	if !p.Valid() {
		s.stats.NoPosition++
		return Fix{}, false
	}
	return Fix{MMSI: uint32(mmsi), Pos: p, Time: time.Unix(ts, 0).UTC()}, true
}
