package ais

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/geo"
)

// Fix is one cleaned positional tuple ⟨MMSI, Lon, Lat, τ⟩ — the unit of
// the positional stream that the rest of the system consumes (paper §2).
type Fix struct {
	MMSI uint32
	Pos  geo.Point
	Time time.Time
}

// String renders the fix for logs and exports.
func (f Fix) String() string {
	return fmt.Sprintf("%d@%s %s", f.MMSI, f.Time.UTC().Format(time.RFC3339), f.Pos)
}

// ScannerStats counts what the Data Scanner saw and why it dropped
// input. The paper notes that AIS data "is not noise-free; messages may
// be delayed, intermittent, or conflicting" and that the scanner cleans
// distortions such as bad checksums.
type ScannerStats struct {
	Lines         int // input lines consumed
	Fixes         int // cleaned fixes emitted
	BadChecksum   int // NMEA checksum failures
	Malformed     int // unparsable lines
	Unsupported   int // AIS types other than 1, 2, 3, 5, 18, 19
	NoPosition    int // reports with not-available coordinates
	FragmentLoss  int // broken multi-sentence groups
	VoyageReports int // type 5 static/voyage messages collected
	Blank         int // blank and '#'-comment lines
	Fragments     int // fragments consumed while awaiting the rest of a group
}

// Dropped returns the total number of dropped input lines.
func (s ScannerStats) Dropped() int {
	return s.BadChecksum + s.Malformed + s.Unsupported + s.NoPosition + s.FragmentLoss
}

// Reconciles reports whether every consumed line is accounted for by
// exactly one outcome counter — the Data Scanner's bookkeeping
// invariant, checked by the robustness and fuzz tests.
func (s ScannerStats) Reconciles() bool {
	return s.Lines == s.Fixes+s.VoyageReports+s.Dropped()+s.Blank+s.Fragments
}

// Add returns the element-wise sum of two snapshots. A resuming client
// that re-dials a feed restarts its scanner per connection; Add folds
// the finished connection's counters into the session total.
func (s ScannerStats) Add(o ScannerStats) ScannerStats {
	return ScannerStats{
		Lines:         s.Lines + o.Lines,
		Fixes:         s.Fixes + o.Fixes,
		BadChecksum:   s.BadChecksum + o.BadChecksum,
		Malformed:     s.Malformed + o.Malformed,
		Unsupported:   s.Unsupported + o.Unsupported,
		NoPosition:    s.NoPosition + o.NoPosition,
		FragmentLoss:  s.FragmentLoss + o.FragmentLoss,
		VoyageReports: s.VoyageReports + o.VoyageReports,
		Blank:         s.Blank + o.Blank,
		Fragments:     s.Fragments + o.Fragments,
	}
}

// Scanner implements the paper's Data Scanner: it reads a line-oriented
// AIS feed, decodes and validates each message, and emits an append-only
// stream of cleaned fixes. Two line formats are accepted and may be
// mixed:
//
//	<unix-seconds> !AIVDM,...        timestamped NMEA, as archived feeds store it
//	<mmsi>,<lon>,<lat>,<unix-seconds> plain CSV, the shape of the paper's dataset
//
// Lines starting with '#' and blank lines are skipped. A line of 1 MiB or
// more is counted Malformed and skipped; the scan resumes at the next
// newline.
type Scanner struct {
	r       *bufio.Scanner
	lines   lineSplitter
	asm     *Assembler
	stats   ScannerStats
	err     error
	fix     Fix
	voyages map[uint32]StaticVoyage
}

// maxLineBytes bounds the scanner's read buffer; see lineSplitter.
const maxLineBytes = 1 << 20

// NewScanner wraps the reader.
func NewScanner(r io.Reader) *Scanner {
	s := &Scanner{r: bufio.NewScanner(r), asm: NewAssembler(), voyages: make(map[uint32]StaticVoyage)}
	s.r.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	s.r.Split(s.lines.split)
	return s
}

// lineSplitter is bufio.ScanLines for lines shorter than maxLineBytes. A
// longer line would end bufio.Scanner with ErrTooLong and lose the rest
// of the feed; instead its bytes are discarded up to the next newline
// (or the end of input) and it comes out as one empty token with
// tooLong set, which Scan counts as one Malformed line.
type lineSplitter struct {
	skipping bool // inside an over-long line, discarding up to its newline
	tooLong  bool // the last token stands for a discarded over-long line
}

// discarded is the token of an over-long line: empty but non-nil, since
// a nil token makes bufio.Scanner read on instead of returning.
var discarded = []byte{}

func (l *lineSplitter) split(data []byte, atEOF bool) (int, []byte, error) {
	if l.skipping {
		end := len(data)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			end = i + 1
		} else if !atEOF {
			return end, nil, nil
		}
		l.skipping, l.tooLong = false, true
		return end, discarded, nil
	}
	advance, token, err := bufio.ScanLines(data, atEOF)
	if advance == 0 && token == nil && err == nil && len(data) >= maxLineBytes {
		// The buffer is full at its limit and holds no newline.
		l.skipping = true
		return len(data), nil, nil
	}
	return advance, token, err
}

// Voyages returns the latest static/voyage report collected per vessel.
// Trip semantics deliberately ignore the declared destinations (paper
// §3.2: manually entered, "often missing or error-prone"); they are
// surfaced for display and comparison only.
func (s *Scanner) Voyages() map[uint32]StaticVoyage { return s.voyages }

// Scan advances to the next cleaned fix. It returns false at end of
// input or on a read error (see Err); decoding errors only increment
// the drop counters.
//
// Each line is decoded zero-copy out of the read buffer (see
// zerocopy.go); a warm scanner emits fixes without allocating.
func (s *Scanner) Scan() bool {
	for s.r.Scan() {
		s.stats.Lines++
		if s.lines.tooLong {
			s.lines.tooLong = false
			s.stats.Malformed++
			continue
		}
		line := bytes.TrimSpace(s.r.Bytes())
		if len(line) == 0 || line[0] == '#' {
			s.stats.Blank++
			continue
		}
		if fix, ok := s.consumeBytes(line); ok {
			s.fix = fix
			s.stats.Fixes++
			return true
		}
	}
	s.err = s.r.Err()
	return false
}

// Fix returns the fix produced by the last successful Scan.
func (s *Scanner) Fix() Fix { return s.fix }

// Err returns the first read error encountered, if any.
func (s *Scanner) Err() error { return s.err }

// Stats returns a snapshot of the drop counters.
func (s *Scanner) Stats() ScannerStats { return s.stats }

// isErr unwraps with errors.Is semantics; a tiny indirection to keep the
// switch above readable.
func isErr(err, target error) bool { return errors.Is(err, target) }

// WriteFixCSV renders a fix in the scanner's CSV input format.
func WriteFixCSV(w io.Writer, f Fix) error {
	_, err := fmt.Fprintf(w, "%d,%.6f,%.6f,%d\n", f.MMSI, f.Pos.Lon, f.Pos.Lat, f.Time.Unix())
	return err
}
