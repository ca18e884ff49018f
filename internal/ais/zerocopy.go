package ais

import (
	"bytes"
	"encoding/binary"
	"math/bits"
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
// shape every feed writes — up to 18 digits, the first eight of them a
// word at a time, then ASCII spaces — and by strconv otherwise (a sign,
// 19 or more digits, other whitespace), which settles it exactly as the
// string decoder does.
func (s *Scanner) consumeBytes(line []byte) (Fix, bool) {
	bang := bytes.IndexByte(line, '!')
	if bang < 0 {
		return s.consumeCSVBytes(line)
	}
	var ts int64
	i := 0
	if bang >= 8 {
		// Eight leading digits at once: each lane less '0', then lanes
		// folded pairwise (×10, ×100, ×10⁴) with the first digit most
		// significant.
		w := binary.LittleEndian.Uint64(line)
		y := w &^ highs
		if digits := (y + (0x80-'0')*lanes) &^ (y + (0x7F-'9')*lanes) &^ w; digits&highs == highs {
			d := w - '0'*lanes
			d = (d * (10<<8 + 1)) >> 8 & 0x00FF00FF00FF00FF
			d = (d * (100<<16 + 1)) >> 16 & 0x0000FFFF0000FFFF
			d = (d * (10000<<32 + 1)) >> 32
			ts, i = int64(d), 8
		}
	}
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

// The canonical single-fragment sentence, "!AIVDM,1,1,,<ch>,<payload>,<fill>*<hh>":
// its first twelve bytes as one 8-byte and one 4-byte little-endian
// word, the XOR of the eleven of them inside the checksummed body, and
// the payload's offset.
const (
	canonHead  = uint64('!') | uint64('A')<<8 | uint64('I')<<16 | uint64('V')<<24 | uint64('D')<<32 | uint64('M')<<40 | uint64(',')<<48 | uint64('1')<<56
	canonTail  = uint32(',') | uint32('1')<<8 | uint32(',')<<16 | uint32(',')<<24
	canonSum   = 'A' ^ 'I' ^ 'V' ^ 'D' ^ 'M' ^ ',' ^ '1' ^ ',' ^ '1' ^ ',' ^ ','
	canonStart = 14 // the payload's offset: prefix, one channel byte, ','
)

// Word-at-a-time byte tests: lanes holds 1 in every byte, so c·lanes
// repeats c across a word; a lane's high bit is its test's answer.
const (
	lanes = 0x0101010101010101
	highs = 0x80 * lanes
)

// armorRun returns the length of the longest prefix of p whose bytes
// are all in the armor alphabet ('0'–'W', '`'–'w'), and the XOR of
// those bytes. It tests eight bytes per step: with the high bit of each
// lane masked off, adding 0x80−lo sets a lane's high bit iff the lane is
// at least lo, and adding 0x7F−hi iff it is above hi, with no carry
// between lanes; a lane with its own high bit set (a byte ≥ 0x80) is
// outside the alphabet too. The first lane that fails ends the run. The
// last r < 8 bytes are read from the word that ends p, shifted down into
// the low r lanes, or byte by byte when p is shorter than a word; only
// those r lanes are tested.
func armorRun(p []byte) (n int, sum byte) {
	var x uint64
	for n < len(p) {
		r := min(len(p)-n, 8)
		var w uint64
		switch {
		case r == 8:
			w = binary.LittleEndian.Uint64(p[n:])
		case len(p) >= 8:
			w = binary.LittleEndian.Uint64(p[len(p)-8:]) >> (64 - 8*r)
		default:
			for i, c := range p[n:] {
				w |= uint64(c) << (8 * i)
			}
		}
		if bad := outsideArmor(w) & (uint64(1)<<(8*r) - 1); bad != 0 {
			k := bits.TrailingZeros64(bad) / 8
			return n + k, foldXOR(x ^ w&(uint64(1)<<(8*k)-1))
		}
		x ^= w
		n += r
	}
	return n, foldXOR(x)
}

// outsideArmor returns the high bit of every lane of w holding a byte
// outside the armor alphabet, and no other bit.
func outsideArmor(w uint64) uint64 {
	y := w &^ highs
	digits := (y + (0x80-'0')*lanes) &^ (y + (0x7F-'W')*lanes)
	letters := (y + (0x80-'`')*lanes) &^ (y + (0x7F-'w')*lanes)
	return (^(digits | letters) | w) & highs
}

// foldXOR folds the eight lanes of a word into the XOR of its bytes.
func foldXOR(x uint64) byte {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	return byte(x)
}

// consumeNMEABytes decodes one "!AIVDM..." sentence stamped ts, without
// allocating. The validation sequence replicates ParseSentence +
// Assembler.Push + decodeArmored + decodePositionReport step for step.
//
// A canonical sentence — the "!AIVDM,1,1,," prefix, a one-byte channel,
// a payload wholly in the armor alphabet and nothing after
// ",<fill>*<hex><hex>" — is settled without the byte loop: its talker,
// fragment fields and comma offsets are the prefix's, the checksum's
// '*' is the last one, and the payload's XOR comes a word at a time.
// Every check the byte loop's path makes after the checksum either holds
// by that shape or is made below as it is there, so the line lands on
// the same counter and fix. Any other sentence takes the byte loop.
func (s *Scanner) consumeNMEABytes(ts int64, sentence []byte) (Fix, bool) {
	end := len(sentence) - 5 // the comma before the fill digit
	if end >= canonStart &&
		binary.LittleEndian.Uint64(sentence) == canonHead &&
		binary.LittleEndian.Uint32(sentence[8:]) == canonTail &&
		sentence[12] != ',' && sentence[13] == ',' &&
		sentence[end] == ',' && sentence[end+1]-'0' < 10 && sentence[end+2] == '*' {
		hi, lo := hexTable[sentence[end+3]], hexTable[sentence[end+4]]
		payload := sentence[canonStart:end]
		if n, psum := armorRun(payload); n == len(payload) && hi != 0xFF && lo != 0xFF {
			fill := int(sentence[end+1] - '0')
			if canonSum^sentence[12]^','^psum^','^sentence[end+1] != hi<<4|lo {
				s.stats.BadChecksum++
				return Fix{}, false
			}
			if fill > 5 {
				s.stats.Malformed++
				return Fix{}, false
			}
			if fix, ok, voyage := s.decodeSingle(ts, payload, fill); !voyage {
				return fix, ok
			}
			commas := [6]int{6, 8, 10, 11, 13, end} // the canonical offsets
			return s.pushLegacy(ts, sentenceOf(sentence, &commas, 1, 1, fill))
		}
	}
	return s.consumeNMEALoop(ts, sentence)
}

// consumeNMEALoop is consumeNMEABytes for every sentence shape: one
// forward pass over the sentence (sentence[0] == '!' is guaranteed by
// the caller, which also trimmed trailing CR/LF). It XORs the checksum,
// records the first six comma offsets and notes whether the sixth
// field, the payload, holds a byte outside the armor alphabet. At each
// '*' it snapshots the sum and the comma count: the last '*' — the one
// ParseSentence's LastIndexByte finds — ends the body, and every earlier
// one is part of it.
func (s *Scanner) consumeNMEALoop(ts int64, sentence []byte) (Fix, bool) {
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
				// The payload: its armor characters a word at a time, the
				// first byte outside the alphabet back to the cases here.
				n, psum := armorRun(sentence[k+1:])
				k += n
				sum ^= psum
			}
		case c == '*':
			star, bodySum, bodyNC = k, sum^c, nc
			badArmor = badArmor || nc == 5
		case nc == 5:
			badArmor = true // a payload byte the armor run stopped at
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
	// above noted).
	if badArmor {
		s.stats.Malformed++ // invalid payload character
		return Fix{}, false
	}
	if fix, ok, voyage := s.decodeSingle(ts, payload, fill); !voyage {
		return fix, ok
	}
	return s.pushLegacy(ts, sentenceOf(sentence, &commas, fragCount, fragNum, fill))
}

// decodeSingle finishes a validated single-fragment sentence whose
// payload is wholly in the armor alphabet: it establishes the bit
// length and extracts the fix. A voyage report is left to the caller
// (voyage set, nothing counted), which hands it to the allocating path.
func (s *Scanner) decodeSingle(ts int64, payload []byte, fill int) (fix Fix, ok, voyage bool) {
	bitLen := len(payload) * 6
	if fill > bitLen {
		s.stats.Malformed++ // fill bits exceed payload
		return Fix{}, false, false
	}
	bitLen -= fill

	if bitLen < 6 {
		s.stats.Malformed++ // ErrTruncated
		return Fix{}, false, false
	}
	msgType := int(dearmorTable[payload[0]])
	switch msgType {
	case TypeStaticVoyage:
		// Voyage report: decoded off the hot path (ship name, ETA, …).
		return Fix{}, false, true
	case TypePositionA, TypePositionAAssigned, TypePositionAResponse:
		if bitLen < lenPositionA {
			s.stats.Malformed++ // ErrTruncated
			return Fix{}, false, false
		}
		a := newArmorBits(payload)
		fix, ok = s.finishFix(ts, uint32(a.uint(8, 30)),
			float64(a.int(61, 28))/600000, float64(a.int(89, 27))/600000)
		return fix, ok, false
	case TypePositionB, TypePositionBExtended:
		need := lenPositionB
		if msgType == TypePositionBExtended {
			need = lenPositionBExt
		}
		if bitLen < need {
			s.stats.Malformed++ // ErrTruncated
			return Fix{}, false, false
		}
		a := newArmorBits(payload)
		fix, ok = s.finishFix(ts, uint32(a.uint(8, 30)),
			float64(a.int(57, 28))/600000, float64(a.int(85, 27))/600000)
		return fix, ok, false
	default:
		s.stats.Unsupported++ // ErrUnsupportedType
		return Fix{}, false, false
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
