package alertlog

import (
	"encoding/json"
	"errors"
	"io"
	"os"

	"repro/internal/durable"
	"repro/internal/serve"
)

// Reader follows the log from a sequence cursor, caching its file
// position between polls so tailing the active segment is incremental,
// not a rescan. It is safe against everything a live log does under
// it: a half-flushed frame at the tail reads as "no more data yet", a
// rotation advances it to the next segment, a prune ahead of the
// cursor skips forward with the loss counted, and a writer-restart
// truncation behind the cursor rewinds and deduplicates by sequence.
type Reader struct {
	dir  string
	next uint64 // next expected sequence (applied + 1)

	f        *os.File
	offset   int64
	segStart uint64
	// sealed is set once a newer segment than the open one has been
	// seen: the writer never appends to this file again, so whatever a
	// scan finds from then on is final.
	sealed bool
	// beforeList, when set, runs between finding the open segment
	// drained and listing the directory — the window tests need to put
	// a writer in.
	beforeList func()

	skipped uint64 // records jumped over because retention pruned them
}

// NewReader positions a reader so its first delivered record has
// sequence > afterSeq (0 = from the oldest retained record).
func NewReader(dir string, afterSeq uint64) *Reader {
	return &Reader{dir: dir, next: afterSeq + 1}
}

// Skipped returns how many sequence numbers the reader had to jump
// because retention pruned them before it caught up.
func (r *Reader) Skipped() uint64 { return r.skipped }

// Next returns up to max envelopes after the cursor, oldest first. An
// empty batch with a nil error means "caught up — poll again later".
func (r *Reader) Next(max int) ([]serve.Envelope, error) {
	if max <= 0 {
		max = 1024
	}
	var out []serve.Envelope
	for len(out) < max {
		if r.f == nil {
			ok, err := r.open()
			if err != nil {
				return out, err
			}
			if !ok {
				return out, nil // nothing (new) to read yet
			}
		}
		n, scanErr, err := r.scan(&out, max)
		if err != nil {
			return out, err
		}
		if scanErr == nil && n > 0 {
			continue
		}
		// Either a torn tail or a clean end of the current segment.
		if !r.sealed {
			if r.beforeList != nil {
				r.beforeList()
			}
			next, err := r.newer()
			if err != nil {
				return out, err
			}
			if next == nil {
				return out, nil // the active segment: wait for the writer
			}
			// A newer segment exists, so the writer is done with this
			// one — but it may have appended to it and rotated between
			// the scan above and the listing. Scan it once more; what it
			// holds now is final.
			r.sealed = true
			continue
		}
		// Sealed and fully read: a torn tail here is permanent loss, a
		// clean end means the reader moves on.
		advanced, err := r.advance(scanErr != nil)
		if err != nil {
			return out, err
		}
		if !advanced {
			return out, nil
		}
	}
	return out, nil
}

// open locates the segment containing the cursor and opens it. It
// returns false when the log has no segment for the cursor yet.
func (r *Reader) open() (bool, error) {
	segs, err := listSegments(r.dir)
	if err != nil {
		return false, err
	}
	if len(segs) == 0 {
		return false, nil
	}
	if r.next < segs[0].start {
		// Retention pruned the range the cursor wanted; jump forward
		// and account for every sequence lost to the reader.
		r.skipped += segs[0].start - r.next
		r.next = segs[0].start
	}
	pick := segs[0]
	for _, s := range segs[1:] {
		if s.start <= r.next {
			pick = s
		}
	}
	f, err := os.Open(pick.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil // pruned between list and open; next poll realigns
		}
		return false, err
	}
	r.f = f
	r.offset = 0
	r.segStart = pick.start
	r.sealed = false
	return true, nil
}

// scan reads frames from the cached offset, appending records past the
// cursor to out. It returns how many records were appended, the frame
// scan's terminal condition (torn/corrupt tail), and any I/O error.
func (r *Reader) scan(out *[]serve.Envelope, max int) (int, error, error) {
	info, err := r.f.Stat()
	if err != nil {
		return 0, nil, err
	}
	if info.Size() < r.offset {
		// The writer restarted and recovery truncated behind us; reread
		// from the top — records below the cursor deduplicate by seq.
		r.offset = 0
	}
	if info.Size() == r.offset {
		return 0, nil, nil
	}
	if _, err := r.f.Seek(r.offset, io.SeekStart); err != nil {
		return 0, nil, err
	}
	n := 0
	valid, _, scanErr := durable.ScanFrames(r.f, recordMagic, recordVersion,
		func(payload []byte, _ uint16) bool {
			var e serve.Envelope
			if json.Unmarshal(payload, &e) != nil {
				return true // framing was valid; skip the record
			}
			if e.Seq < r.next {
				return true // duplicate below the cursor
			}
			if e.Seq > r.next {
				r.skipped += e.Seq - r.next
			}
			*out = append(*out, e)
			r.next = e.Seq + 1
			n++
			return n < max
		})
	r.offset += valid
	if scanErr != nil && (errors.Is(scanErr, durable.ErrTruncated) ||
		errors.Is(scanErr, durable.ErrChecksum) || errors.Is(scanErr, durable.ErrBadMagic)) {
		return n, scanErr, nil
	}
	return n, nil, scanErr
}

// newer returns the first segment after the open one, nil when the open
// one is still the newest.
func (r *Reader) newer() (*segFile, error) {
	segs, err := listSegments(r.dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		if segs[i].start > r.segStart {
			return &segs[i], nil
		}
	}
	return nil, nil
}

// advance moves from a sealed, fully read segment to the next one. With
// torn true the sealed segment's tail was invalid: that is permanent
// loss and the reader steps over it, counting what it skipped.
func (r *Reader) advance(torn bool) (bool, error) {
	nextSeg, err := r.newer()
	if err != nil || nextSeg == nil {
		return false, err
	}
	if torn {
		// Sealed segment with an invalid tail: everything up to the next
		// segment's first record is gone for this reader.
		if nextSeg.start > r.next {
			r.skipped += nextSeg.start - r.next
		}
		r.next = nextSeg.start
	}
	r.f.Close()
	f, err := os.Open(nextSeg.path)
	if err != nil {
		r.f = nil
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	r.f = f
	r.offset = 0
	r.segStart = nextSeg.start
	r.sealed = false
	return true, nil
}

// Close releases the reader's file handle.
func (r *Reader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// TailSeq returns the newest fully durable record sequence in dir
// (0 = empty log), by scanning the newest segment that holds a valid
// record. Replicas use it to report tail lag without holding the
// writer's state.
func TailSeq(dir string) uint64 {
	segs, err := listSegments(dir)
	if err != nil {
		return 0
	}
	for i := len(segs) - 1; i >= 0; i-- {
		if _, _, _, last, _ := scanSegment(segs[i].path); last != 0 {
			return last
		}
	}
	return 0
}
