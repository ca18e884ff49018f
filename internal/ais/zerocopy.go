package ais

import (
	"bytes"
	"strconv"
	"time"
	"unsafe"

	"repro/internal/geo"
)

// Zero-copy decode. The Scanner's hot loop reads lines as byte slices
// straight out of the bufio.Scanner's buffer and decodes single-fragment
// position reports by extracting the three payload fields a Fix needs —
// MMSI, longitude, latitude — directly from the 6-bit armored
// characters, with no intermediate string, bitBuffer or PositionReport
// allocation. Multi-sentence groups and type 5 voyage reports take the
// allocating path (ParseSentence → Assembler → decodePositionReport)
// through pushLegacy.
//
// Every validation step below mirrors the string decoder's checks in the
// same order, so each input line lands on exactly the same ScannerStats
// counter and yields exactly the same Fix (or none) as the string
// decoder in legacy_test.go, the differential oracle.

// unsafeString views a byte slice as a string for the strconv parsers,
// which do not retain their argument. The slice must not be mutated
// while the string is in use; every use here is confined to one call.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// dearmorTable maps an armored payload character to its 6-bit value,
// with 0xFF marking characters outside the alphabet. It is the table
// form of dearmorChar.
var dearmorTable = func() (t [256]byte) {
	for i := range t {
		v, ok := dearmorChar(byte(i))
		if !ok {
			v = 0xFF
		}
		t[i] = v
	}
	return
}()

// hexTable maps a hexadecimal digit to its value, with 0xFF marking
// every other byte.
var hexTable = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for i := byte(0); i < 10; i++ {
		t['0'+i] = i
	}
	for i := byte(0); i < 6; i++ {
		t['a'+i], t['A'+i] = 10+i, 10+i
	}
	return
}()

// payloadUint extracts an unsigned MSB-first bit field [start,
// start+width) from an armored payload, without dearmoring it into a
// buffer: the six-bit groups covering the field (at most six, for the
// 30-bit MMSI) are gathered into one word, shifted and masked. The
// payload must already be validated (all characters in the alphabet,
// field within the bit length).
func payloadUint(payload []byte, start, width int) uint64 {
	end := start + width
	last := (end - 1) / 6
	var v uint64
	for _, c := range payload[start/6 : last+1] {
		v = v<<6 | uint64(dearmorTable[c])
	}
	return v >> uint((last+1)*6-end) & (1<<uint(width) - 1)
}

// payloadInt extracts a signed two's-complement field.
func payloadInt(payload []byte, start, width int) int64 {
	v := payloadUint(payload, start, width)
	if v&(1<<uint(width-1)) != 0 {
		v |= ^uint64(0) << uint(width)
	}
	return int64(v)
}

// consumeBytes handles one non-empty, whitespace-trimmed line on the
// zero-copy path.
func (s *Scanner) consumeBytes(line []byte) (Fix, bool) {
	if i := bytes.IndexByte(line, '!'); i >= 0 {
		return s.consumeNMEABytes(line[:i], line[i:])
	}
	return s.consumeCSVBytes(line)
}

// consumeNMEABytes parses "<ts> !AIVDM..." lines without allocating.
// The validation sequence replicates ParseSentence + Assembler.Push +
// decodeArmored + decodePositionReport step for step.
func (s *Scanner) consumeNMEABytes(prefix, sentence []byte) (Fix, bool) {
	ts, err := strconv.ParseInt(unsafeString(bytes.TrimSpace(prefix)), 10, 64)
	if err != nil {
		s.stats.Malformed++
		return Fix{}, false
	}

	// ParseSentence structure checks. sentence[0] == '!' is guaranteed
	// by the IndexByte split; the caller already trimmed trailing CR/LF.
	star := bytes.LastIndexByte(sentence, '*')
	if star < 0 || star+3 > len(sentence) {
		s.stats.Malformed++ // missing checksum
		return Fix{}, false
	}
	body := sentence[1:star]
	hi, lo := hexTable[sentence[star+1]], hexTable[sentence[star+2]]
	if hi == 0xFF || lo == 0xFF {
		s.stats.Malformed++ // unparsable checksum
		return Fix{}, false
	}
	var sum byte
	for _, c := range body {
		sum ^= c
	}
	if sum != hi<<4|lo {
		s.stats.BadChecksum++
		return Fix{}, false
	}

	// Split the body into its 7 comma-separated fields in place.
	var fields [7][]byte
	nf := 0
	rest := body
	for {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			break
		}
		if nf == 7 {
			s.stats.Malformed++ // 8+ fields
			return Fix{}, false
		}
		fields[nf] = rest[:j]
		nf++
		rest = rest[j+1:]
	}
	if nf != 6 {
		s.stats.Malformed++ // field count != 7
		return Fix{}, false
	}
	fields[6] = rest

	talker := fields[0]
	if !bytes.Equal(talker, []byte("AIVDM")) && !bytes.Equal(talker, []byte("AIVDO")) {
		s.stats.Unsupported++ // ErrNotAIVDM
		return Fix{}, false
	}
	fragCount, err := strconv.Atoi(unsafeString(fields[1]))
	if err != nil || fragCount < 1 {
		s.stats.Malformed++
		return Fix{}, false
	}
	fragNum, err := strconv.Atoi(unsafeString(fields[2]))
	if err != nil || fragNum < 1 || fragNum > fragCount {
		s.stats.Malformed++
		return Fix{}, false
	}
	fill, err := strconv.Atoi(unsafeString(fields[6]))
	if err != nil || fill < 0 || fill > 5 {
		s.stats.Malformed++
		return Fix{}, false
	}

	payload := fields[5]
	if fragCount > 1 {
		// Multi-sentence group: rare, and the assembler must retain the
		// payload beyond this line's buffer — take the legacy path.
		return s.pushLegacy(ts, Sentence{
			Talker:        string(talker),
			FragmentCount: fragCount,
			FragmentNum:   fragNum,
			MessageID:     string(fields[3]),
			Channel:       string(fields[4]),
			Payload:       string(payload),
			FillBits:      fill,
		})
	}

	// decodeArmored: validate every payload character (dearmor rejects
	// the whole payload on any bad character) and establish the bit
	// length.
	for _, c := range payload {
		if dearmorTable[c] == 0xFF {
			s.stats.Malformed++ // invalid payload character
			return Fix{}, false
		}
	}
	bitLen := len(payload) * 6
	if fill > bitLen {
		s.stats.Malformed++ // fill bits exceed payload
		return Fix{}, false
	}
	bitLen -= fill

	if bitLen < 6 {
		s.stats.Malformed++ // ErrTruncated
		return Fix{}, false
	}
	msgType := int(dearmorTable[payload[0]])
	switch msgType {
	case TypeStaticVoyage:
		// Voyage report: decoded off the hot path (ship name, ETA, …).
		return s.pushLegacy(ts, Sentence{
			Talker:        string(talker),
			FragmentCount: fragCount,
			FragmentNum:   fragNum,
			MessageID:     string(fields[3]),
			Channel:       string(fields[4]),
			Payload:       string(payload),
			FillBits:      fill,
		})
	case TypePositionA, TypePositionAAssigned, TypePositionAResponse:
		if bitLen < lenPositionA {
			s.stats.Malformed++ // ErrTruncated
			return Fix{}, false
		}
		return s.finishFix(ts,
			uint32(payloadUint(payload, 8, 30)),
			float64(payloadInt(payload, 61, 28))/600000,
			float64(payloadInt(payload, 89, 27))/600000)
	case TypePositionB, TypePositionBExtended:
		need := lenPositionB
		if msgType == TypePositionBExtended {
			need = lenPositionBExt
		}
		if bitLen < need {
			s.stats.Malformed++ // ErrTruncated
			return Fix{}, false
		}
		return s.finishFix(ts,
			uint32(payloadUint(payload, 8, 30)),
			float64(payloadInt(payload, 57, 28))/600000,
			float64(payloadInt(payload, 85, 27))/600000)
	default:
		s.stats.Unsupported++ // ErrUnsupportedType
		return Fix{}, false
	}
}

// finishFix applies the Scanner's semantic position filter and builds
// the fix. The lon/lat range check is PositionReport.HasPosition.
func (s *Scanner) finishFix(ts int64, mmsi uint32, lon, lat float64) (Fix, bool) {
	if lon < -180 || lon > 180 || lat < -90 || lat > 90 {
		s.stats.NoPosition++
		return Fix{}, false
	}
	return Fix{
		MMSI: mmsi,
		Pos:  geo.Point{Lon: lon, Lat: lat},
		Time: time.Unix(ts, 0).UTC(),
	}, true
}

// pushLegacy routes an already-parsed sentence through the assembler and
// the allocating decoder: multi-fragment groups and voyage reports. The
// outcome classification is the tail of the legacy consumeNMEA.
func (s *Scanner) pushLegacy(ts int64, sent Sentence) (Fix, bool) {
	msg, err := s.asm.Push(sent)
	if err != nil {
		switch {
		case isErr(err, ErrUnsupportedType):
			s.stats.Unsupported++
		case isErr(err, ErrFragmentLost):
			s.stats.FragmentLoss++
		default:
			s.stats.Malformed++
		}
		return Fix{}, false
	}
	switch report := msg.(type) {
	case nil:
		s.stats.Fragments++
		return Fix{}, false // awaiting more fragments
	case *StaticVoyage:
		s.stats.VoyageReports++
		s.voyages[report.MMSI] = *report
		return Fix{}, false
	case *PositionReport:
		if !report.HasPosition() {
			s.stats.NoPosition++
			return Fix{}, false
		}
		return Fix{
			MMSI: report.MMSI,
			Pos:  geo.Point{Lon: report.Lon, Lat: report.Lat},
			Time: time.Unix(ts, 0).UTC(),
		}, true
	default:
		s.stats.Malformed++
		return Fix{}, false
	}
}

// consumeCSVBytes parses "mmsi,lon,lat,unix-seconds" lines without
// allocating.
func (s *Scanner) consumeCSVBytes(line []byte) (Fix, bool) {
	var parts [4][]byte
	np := 0
	rest := line
	for {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			break
		}
		if np == 4 {
			s.stats.Malformed++ // 5+ fields
			return Fix{}, false
		}
		parts[np] = rest[:j]
		np++
		rest = rest[j+1:]
	}
	if np != 3 {
		s.stats.Malformed++ // field count != 4
		return Fix{}, false
	}
	parts[3] = rest

	mmsi, err1 := strconv.ParseUint(unsafeString(bytes.TrimSpace(parts[0])), 10, 32)
	lon, err2 := strconv.ParseFloat(unsafeString(bytes.TrimSpace(parts[1])), 64)
	lat, err3 := strconv.ParseFloat(unsafeString(bytes.TrimSpace(parts[2])), 64)
	ts, err4 := strconv.ParseInt(unsafeString(bytes.TrimSpace(parts[3])), 10, 64)
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
