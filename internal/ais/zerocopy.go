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

// armorBits is the first 120 bits of a validated payload — its first
// twenty characters, which hold every field a fix needs — as two 60-bit
// words, MSB first, dearmored without a buffer.
type armorBits struct{ hi, lo uint64 }

func newArmorBits(payload []byte) armorBits {
	return armorBits{armorWord(payload[:10]), armorWord(payload[10:20])}
}

// armorWord packs ten armored characters into the low 60 bits.
func armorWord(p []byte) uint64 {
	_ = p[9]
	t := &dearmorTable
	return uint64(t[p[0]])<<54 | uint64(t[p[1]])<<48 | uint64(t[p[2]])<<42 |
		uint64(t[p[3]])<<36 | uint64(t[p[4]])<<30 | uint64(t[p[5]])<<24 |
		uint64(t[p[6]])<<18 | uint64(t[p[7]])<<12 | uint64(t[p[8]])<<6 | uint64(t[p[9]])
}

// uint extracts the unsigned field [start, start+width), width <= 60.
func (a armorBits) uint(start, width int) uint64 {
	end := start + width
	var v uint64
	switch {
	case end <= 60:
		v = a.hi >> uint(60-end)
	case start >= 60:
		v = a.lo >> uint(120-end)
	default:
		v = a.hi<<uint(end-60) | a.lo>>uint(120-end)
	}
	return v & (1<<uint(width) - 1)
}

// int extracts a signed two's-complement field.
func (a armorBits) int(start, width int) int64 {
	v := a.uint(start, width)
	if v&(1<<uint(width-1)) != 0 {
		v |= ^uint64(0) << uint(width)
	}
	return int64(v)
}

// asciiSpace marks the bytes bytes.TrimSpace trims from an ASCII line.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// consumeBytes handles one non-empty, whitespace-trimmed line on the
// zero-copy path. The NMEA timestamp is parsed inline when it has the
// shape every feed writes — up to 18 digits, then ASCII spaces — and by
// strconv otherwise (a sign, 19 or more digits, other whitespace),
// which settles it exactly as the string decoder does.
func (s *Scanner) consumeBytes(line []byte) (Fix, bool) {
	bang := bytes.IndexByte(line, '!')
	if bang < 0 {
		return s.consumeCSVBytes(line)
	}
	var ts int64
	i := 0
	for ; i < bang && line[i]-'0' < 10; i++ {
		ts = ts*10 + int64(line[i]-'0')
	}
	j := i
	for j < bang && asciiSpace[line[j]] {
		j++
	}
	if i == 0 || i > 18 || j < bang {
		var err error
		if ts, err = strconv.ParseInt(unsafeString(bytes.TrimSpace(line[:bang])), 10, 64); err != nil {
			s.stats.Malformed++
			return Fix{}, false
		}
	}
	return s.consumeNMEABytes(ts, line[bang:])
}

// fieldInt parses a sentence field as strconv.Atoi does: inline for the
// single digit every AIVDM count, number and fill field carries, by
// strconv for any other shape.
func fieldInt(b []byte) (int, bool) {
	if len(b) == 1 && b[0]-'0' < 10 {
		return int(b[0] - '0'), true
	}
	n, err := strconv.Atoi(unsafeString(b))
	return n, err == nil
}

// consumeNMEABytes decodes one "!AIVDM..." sentence stamped ts, without
// allocating. The validation sequence replicates ParseSentence +
// Assembler.Push + decodeArmored + decodePositionReport step for step.
func (s *Scanner) consumeNMEABytes(ts int64, sentence []byte) (Fix, bool) {
	// One forward pass over the sentence (sentence[0] == '!' is
	// guaranteed by the caller, which also trimmed trailing CR/LF). It
	// XORs the checksum, records the first six comma offsets and notes
	// whether the sixth field, the payload, holds a byte outside the
	// armor alphabet. At each '*' it snapshots the sum and the comma
	// count: the last '*' — the one ParseSentence's LastIndexByte finds —
	// ends the body, and every earlier one is part of it.
	var (
		sum, bodySum byte
		star         = -1
		commas       [6]int
		nc, bodyNC   int
		badArmor     bool
	)
	for k := 1; k < len(sentence); k++ {
		c := sentence[k]
		sum ^= c
		switch {
		case c == ',':
			if nc < len(commas) {
				commas[nc] = k
			}
			nc++
			if nc == 5 {
				// The payload: its armor characters in a tight loop, the
				// first byte outside the alphabet back to the cases here.
				for k+1 < len(sentence) && dearmorTable[sentence[k+1]] != 0xFF {
					k++
					sum ^= sentence[k]
				}
			}
		case c == '*':
			star, bodySum, bodyNC = k, sum^c, nc
			badArmor = badArmor || nc == 5
		case nc == 5:
			badArmor = true // a payload byte the tight loop stopped at
		}
	}

	// ParseSentence structure checks.
	if star < 0 || star+3 > len(sentence) {
		s.stats.Malformed++ // missing checksum
		return Fix{}, false
	}
	hi, lo := hexTable[sentence[star+1]], hexTable[sentence[star+2]]
	if hi == 0xFF || lo == 0xFF {
		s.stats.Malformed++ // unparsable checksum
		return Fix{}, false
	}
	if bodySum != hi<<4|lo {
		s.stats.BadChecksum++
		return Fix{}, false
	}
	if bodyNC != 6 {
		s.stats.Malformed++ // field count != 7
		return Fix{}, false
	}

	talker := sentence[1:commas[0]]
	if string(talker) != "AIVDM" && string(talker) != "AIVDO" {
		s.stats.Unsupported++ // ErrNotAIVDM
		return Fix{}, false
	}
	fragCount, ok := fieldInt(sentence[commas[0]+1 : commas[1]])
	if !ok || fragCount < 1 {
		s.stats.Malformed++
		return Fix{}, false
	}
	fragNum, ok := fieldInt(sentence[commas[1]+1 : commas[2]])
	if !ok || fragNum < 1 || fragNum > fragCount {
		s.stats.Malformed++
		return Fix{}, false
	}
	fill, ok := fieldInt(sentence[commas[5]+1 : star])
	if !ok || fill < 0 || fill > 5 {
		s.stats.Malformed++
		return Fix{}, false
	}

	payload := sentence[commas[4]+1 : commas[5]]
	if fragCount > 1 {
		// Multi-sentence group: rare, and the assembler must retain the
		// payload beyond this line's buffer — take the legacy path.
		return s.pushLegacy(ts, sentenceOf(sentence, &commas, fragCount, fragNum, fill))
	}

	// decodeArmored: every payload character must be in the alphabet
	// (dearmor rejects the whole payload on any bad one, which the pass
	// above noted), then establish the bit length.
	if badArmor {
		s.stats.Malformed++ // invalid payload character
		return Fix{}, false
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
		return s.pushLegacy(ts, sentenceOf(sentence, &commas, fragCount, fragNum, fill))
	case TypePositionA, TypePositionAAssigned, TypePositionAResponse:
		if bitLen < lenPositionA {
			s.stats.Malformed++ // ErrTruncated
			return Fix{}, false
		}
		a := newArmorBits(payload)
		return s.finishFix(ts, uint32(a.uint(8, 30)),
			float64(a.int(61, 28))/600000, float64(a.int(89, 27))/600000)
	case TypePositionB, TypePositionBExtended:
		need := lenPositionB
		if msgType == TypePositionBExtended {
			need = lenPositionBExt
		}
		if bitLen < need {
			s.stats.Malformed++ // ErrTruncated
			return Fix{}, false
		}
		a := newArmorBits(payload)
		return s.finishFix(ts, uint32(a.uint(8, 30)),
			float64(a.int(57, 28))/600000, float64(a.int(85, 27))/600000)
	default:
		s.stats.Unsupported++ // ErrUnsupportedType
		return Fix{}, false
	}
}

// sentenceOf copies the fields of a sentence the single pass validated
// out of the line buffer, for the allocating path.
func sentenceOf(sentence []byte, commas *[6]int, fragCount, fragNum, fill int) Sentence {
	return Sentence{
		Talker:        string(sentence[1:commas[0]]),
		FragmentCount: fragCount,
		FragmentNum:   fragNum,
		MessageID:     string(sentence[commas[2]+1 : commas[3]]),
		Channel:       string(sentence[commas[3]+1 : commas[4]]),
		Payload:       string(sentence[commas[4]+1 : commas[5]]),
		FillBits:      fill,
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
