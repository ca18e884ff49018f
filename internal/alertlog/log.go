// Package alertlog is the durable, replicated backbone of the serving
// tier: a segmented append-only log of published alert envelopes, each
// record an individually CRC-framed (durable.WriteFrame) JSON envelope,
// so the serving tier survives what the pipeline already survives. The
// writer (the hub) appends every published envelope before any
// subscriber sees it; N stateless gateway replicas tail the log from
// their last applied sequence and serve SSE independently, so a
// subscriber reconnecting to any replica with Last-Event-ID sees every
// alert exactly once across replica kill/restart.
//
// Durability discipline: records are appended to the active segment,
// written per batch (one write for all the frames of an Append bound
// for one segment, so a batch appears to tailers whole and raises one
// directory event) and fsynced per batch; rotation fsyncs the sealed
// segment, creates the next one and fsyncs the directory (the
// WriteFileAtomic ordering, applied to an append-only file). A crash
// mid-append leaves a torn or checksum-failing final frame; Open
// truncates the file back to the
// last valid frame and counts the loss instead of refusing to start.
// Sequence numbers are contiguous within and across segments — a gap
// can only be introduced by corruption loss beyond the checkpoint
// replay horizon, and is counted, never silently closed.
package alertlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// recordMagic frames one envelope; recordVersion is its payload
	// format (JSON of serve.Envelope).
	recordMagic   = "ALOGREC"
	recordVersion = 1
	// segPrefix/segSuffix shape segment names: alog-<firstseq>.seg with
	// a fixed-width first-record sequence so lexicographic and numeric
	// order agree.
	segPrefix = "alog-"
	segSuffix = ".seg"
)

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold of the active segment
	// (≤ 0: 1 MiB). A record never straddles segments.
	SegmentBytes int64
	// KeepSegments bounds retention: sealed segments beyond the newest
	// KeepSegments-1 (plus the active one) are pruned after rotation
	// (≤ 0: 8). Align it with checkpoint retention so a restored writer
	// can always reconcile its hub sequence against the log.
	KeepSegments int
	// NoSync skips the per-append fsync (benchmarks only; rotation
	// still syncs).
	NoSync bool
	// WrapWriter, when set, wraps the active segment's writer — the
	// crash-injection hook (faults.CrashWriter): a writer that fails
	// mid-frame leaves exactly the torn tail a process death would.
	WrapWriter func(io.Writer) io.Writer
}

// Stats is the log's cumulative accounting.
type Stats struct {
	FirstSeq uint64 `json:"first_seq"` // oldest retained record (0 = empty)
	LastSeq  uint64 `json:"last_seq"`  // newest record (0 = empty)
	Segments int    `json:"segments"`  // retained segment files
	// ActiveBytes is the size of the active segment in whole frames (a
	// failed write's torn tail, which recovery cuts, is not counted).
	ActiveBytes int64 `json:"active_bytes"`
	// Appended counts records written; SkippedDup counts idempotent
	// re-appends discarded because their sequence was already durable
	// (exactly-once across writer crash + checkpoint replay).
	Appended   uint64 `json:"appended"`
	SkippedDup uint64 `json:"skipped_dup"`
	// GapRecords counts sequence numbers that never reached the log —
	// corruption loss beyond the replay horizon, reported not hidden.
	GapRecords uint64 `json:"gap_records"`
	// Truncations counts torn/corrupt-tail recoveries at Open;
	// TruncatedBytes the bytes cut back in them.
	Truncations    uint64 `json:"truncations"`
	TruncatedBytes uint64 `json:"truncated_bytes"`
	// PrunedSegments counts sealed segments removed by retention.
	PrunedSegments uint64 `json:"pruned_segments"`
	// AppendErrors counts failed appends (the hub keeps serving; the
	// record retries via checkpoint replay after restart).
	AppendErrors uint64 `json:"append_errors"`
}

// Log is the writer side: one process appends, any number of Readers
// and Tailers (in or out of process) follow.
type Log struct {
	dir string
	opt Options

	mu          sync.Mutex
	f           *os.File
	w           io.Writer // f, possibly wrapped by WrapWriter
	segStart    uint64    // sequence the active segment is named for
	activeSize  int64
	activeBorn  time.Time
	firstSeq    uint64
	lastSeq     uint64
	segments    int
	st          Stats
	enc         bytes.Buffer   // frames of one Append bound for the active segment; flush writes them in one call
	staged      []stagedRecord // one per frame in enc
	metricsOnce sync.Once
}

// stagedRecord is one framed record waiting in Log.enc.
type stagedRecord struct {
	seq uint64
	end int // offset in enc just past this record's frame
}

// Open opens (creating if needed) the log directory, recovers the
// segment chain — truncating a torn or corrupt tail back to the last
// valid frame, with the loss counted in Stats — and positions the
// writer after the newest durable record.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 1 << 20
	}
	if opt.KeepSegments <= 0 {
		opt.KeepSegments = 8
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("alertlog: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opt, activeBorn: time.Now()}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// segFile is one discovered segment.
type segFile struct {
	start uint64 // sequence in the file name
	path  string
	size  int64
}

// listSegments returns dir's segments in ascending start-sequence order.
func listSegments(dir string) ([]segFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("alertlog: reading %s: %w", dir, err)
	}
	var out []segFile
	for _, e := range entries {
		name := e.Name()
		var start uint64
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &start); err != nil {
			continue
		}
		if name != segName(start) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, segFile{start: start, path: filepath.Join(dir, name), size: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}

// segName renders the canonical segment name for first-record seq.
func segName(start uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, start, segSuffix)
}

// recover scans the segment chain, truncates the first invalid frame
// and everything after it (later segments would hide a gap), and opens
// the newest surviving segment for append.
func (l *Log) recover() error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		valid, _, first, last, scanErr := scanSegment(seg.path)
		if first != 0 && l.firstSeq == 0 {
			l.firstSeq = first
		}
		if last != 0 {
			l.lastSeq = last
		}
		if scanErr == nil && valid == seg.size {
			continue
		}
		// Torn or corrupt tail: cut this segment back to its last valid
		// frame and drop every later segment — the log ends here.
		l.st.Truncations++
		l.st.TruncatedBytes += uint64(seg.size - valid)
		if err := os.Truncate(seg.path, valid); err != nil {
			return fmt.Errorf("alertlog: truncating %s: %w", seg.path, err)
		}
		for _, later := range segs[i+1:] {
			l.st.TruncatedBytes += uint64(later.size)
			if err := os.Remove(later.path); err != nil {
				return fmt.Errorf("alertlog: removing %s past the corruption: %w", later.path, err)
			}
		}
		segs = segs[:i+1]
		segs[i].size = valid
		break
	}
	l.segments = len(segs)
	if len(segs) == 0 {
		return nil // cold start; the first append creates the segment
	}
	newest := segs[len(segs)-1]
	f, err := os.OpenFile(newest.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("alertlog: opening %s for append: %w", newest.path, err)
	}
	l.f = f
	l.w = l.wrap(f)
	l.segStart = newest.start
	l.activeSize = newest.size
	return nil
}

// scanSegment reads one segment's frames, returning the offset after
// the last valid frame, the frame count, the first and last record
// sequences, and the terminal frame error (nil when the file ends
// cleanly on a frame boundary).
func scanSegment(path string) (valid int64, frames int, first, last uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer f.Close()
	valid, frames, scanErr := durable.ScanFrames(f, recordMagic, recordVersion,
		func(payload []byte, _ uint16) bool {
			var e serve.Envelope
			if json.Unmarshal(payload, &e) != nil {
				return true // counted as valid framing; sequence unknown
			}
			if first == 0 {
				first = e.Seq
			}
			last = e.Seq
			return true
		})
	return valid, frames, first, last, scanErr
}

// wrap applies the crash-injection hook to the active segment writer.
func (l *Log) wrap(f *os.File) io.Writer {
	if l.opt.WrapWriter != nil {
		return l.opt.WrapWriter(f)
	}
	return f
}

// Append writes the envelopes' records durably, in order. Envelopes at
// or below the newest durable sequence are skipped (idempotent
// re-publish during post-restore replay); a sequence jump past
// lastSeq+1 is allowed but counted as gap loss. Every frame bound for
// the active segment goes out in one write (two when the batch spans a
// rotation), and the batch is fsynced once at the end unless
// Options.NoSync.
func (l *Log) Append(envs []serve.Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	appended := l.st.Appended
	err := l.appendBatch(envs)
	if err != nil {
		l.st.AppendErrors++
	}
	if l.st.Appended > appended && !l.opt.NoSync && l.f != nil {
		if serr := l.f.Sync(); serr != nil && err == nil {
			l.st.AppendErrors++
			err = fmt.Errorf("alertlog: fsync %s: %w", l.f.Name(), serr)
		}
	}
	return err
}

// appendBatch stages and writes the batch, rotating (after flushing what
// is staged for the full segment) where a record would start past the
// rotation threshold. Callers hold l.mu.
func (l *Log) appendBatch(envs []serve.Envelope) error {
	last := l.lastSeq // newest sequence written or staged
	for i := range envs {
		e := &envs[i]
		if e.Seq <= last {
			l.st.SkippedDup++
			continue
		}
		if last != 0 && e.Seq > last+1 {
			l.st.GapRecords += e.Seq - last - 1
		}
		if l.f == nil || l.activeSize+int64(l.enc.Len()) >= l.opt.SegmentBytes {
			if err := l.flush(); err != nil {
				return err
			}
			if err := l.rotate(e.Seq); err != nil {
				return err
			}
		}
		payload, err := json.Marshal(e)
		if err == nil {
			err = durable.WriteFrame(&l.enc, recordMagic, recordVersion, payload)
		}
		if err != nil {
			// The records staged before it are good: they still go out.
			return errors.Join(fmt.Errorf("alertlog: encoding record %d: %w", e.Seq, err), l.flush())
		}
		l.staged = append(l.staged, stagedRecord{seq: e.Seq, end: l.enc.Len()})
		last = e.Seq
	}
	return l.flush()
}

// flush writes the staged frames to the active segment in one call and
// accounts the records whose frames landed whole. A short write leaves
// what a crash at that byte leaves — whole frames followed by a torn
// one — and is accounted the way recovery will see it. Callers hold
// l.mu.
func (l *Log) flush() error {
	if len(l.staged) == 0 {
		return nil
	}
	n, err := l.w.Write(l.enc.Bytes())
	whole := 0 // bytes of the frames that landed complete
	for _, r := range l.staged {
		if r.end > n {
			break
		}
		if l.firstSeq == 0 {
			l.firstSeq = r.seq
		}
		l.lastSeq = r.seq
		l.st.Appended++
		whole = r.end
	}
	l.activeSize += int64(whole)
	l.enc.Reset()
	l.staged = l.staged[:0]
	if err != nil {
		return fmt.Errorf("alertlog: appending after record %d: %w", l.lastSeq, err)
	}
	return nil
}

// rotate seals the active segment (fsync + close), creates the next one
// named for nextSeq, fsyncs the directory so the new file is durable,
// and prunes retention. Callers hold l.mu.
func (l *Log) rotate(nextSeq uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("alertlog: sealing %s: %w", l.f.Name(), err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("alertlog: closing %s: %w", l.f.Name(), err)
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, segName(nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("alertlog: creating %s: %w", path, err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = l.wrap(f)
	l.segStart = nextSeq
	l.activeSize = 0
	l.activeBorn = time.Now()
	l.segments++
	return l.pruneLocked()
}

// pruneLocked removes the oldest sealed segments beyond KeepSegments.
func (l *Log) pruneLocked() error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for len(segs) > l.opt.KeepSegments && segs[0].start != l.segStart {
		if err := os.Remove(segs[0].path); err != nil {
			return fmt.Errorf("alertlog: pruning %s: %w", segs[0].path, err)
		}
		l.st.PrunedSegments++
		l.segments--
		segs = segs[1:]
		l.firstSeq = segs[0].start
	}
	return nil
}

// LastSeq returns the newest durable record sequence (0 = empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// FirstSeq returns the oldest retained record sequence (0 = empty).
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstSeq
}

// ReadSince returns up to max retained envelopes with sequence strictly
// greater than afterSeq, oldest first — the hub's replay source when a
// reconnecting subscriber's cursor predates the in-memory ring. It
// reads the segment files directly and never blocks the append path.
func (l *Log) ReadSince(afterSeq uint64, max int) ([]serve.Envelope, error) {
	r := NewReader(l.dir, afterSeq)
	defer r.Close()
	return r.Next(max)
}

// Stats snapshots the log's accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	st.FirstSeq = l.firstSeq
	st.LastSeq = l.lastSeq
	st.Segments = l.segments
	st.ActiveBytes = l.activeSize
	return st
}

// Close seals the active segment. Append after Close reopens nothing;
// the Log is done.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// RegisterMetrics exposes the log on the registry: segment count and
// active-segment size/age, sequence bounds, append/dup/gap accounting,
// and the recovered-truncation counters the chaos suite asserts on.
func (l *Log) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("maritime_alertlog_segments", "Retained alert-log segment files.", nil,
		func() float64 { return float64(l.Stats().Segments) })
	r.GaugeFunc("maritime_alertlog_active_bytes", "Size of the active alert-log segment.", nil,
		func() float64 { return float64(l.Stats().ActiveBytes) })
	r.GaugeFunc("maritime_alertlog_active_age_seconds", "Age of the active alert-log segment.", nil,
		func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return time.Since(l.activeBorn).Seconds()
		})
	r.GaugeFunc("maritime_alertlog_first_seq", "Oldest retained alert-log sequence.", nil,
		func() float64 { return float64(l.Stats().FirstSeq) })
	r.GaugeFunc("maritime_alertlog_last_seq", "Newest durable alert-log sequence.", nil,
		func() float64 { return float64(l.Stats().LastSeq) })
	r.CounterFunc("maritime_alertlog_appended_total", "Alert records appended durably.", nil,
		func() float64 { return float64(l.Stats().Appended) })
	r.CounterFunc("maritime_alertlog_dup_skipped_total", "Idempotent re-appends discarded (already durable).", nil,
		func() float64 { return float64(l.Stats().SkippedDup) })
	r.CounterFunc("maritime_alertlog_gap_records_total", "Sequence numbers lost to corruption beyond the replay horizon.", nil,
		func() float64 { return float64(l.Stats().GapRecords) })
	r.CounterFunc("maritime_alertlog_truncations_recovered_total", "Torn/corrupt-tail recoveries at open.", nil,
		func() float64 { return float64(l.Stats().Truncations) })
	r.CounterFunc("maritime_alertlog_truncated_bytes_total", "Bytes cut back by tail recovery.", nil,
		func() float64 { return float64(l.Stats().TruncatedBytes) })
	r.CounterFunc("maritime_alertlog_pruned_segments_total", "Sealed segments removed by retention.", nil,
		func() float64 { return float64(l.Stats().PrunedSegments) })
	r.CounterFunc("maritime_alertlog_append_errors_total", "Failed appends (the hub keeps serving; replay refills after restart).", nil,
		func() float64 { return float64(l.Stats().AppendErrors) })
}

// syncDir fsyncs a directory so segment creation survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("alertlog: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("alertlog: fsync dir %s: %w", dir, err)
	}
	return nil
}
