package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FileSpec names one kind of numbered durable file: <Prefix><seq><Suffix>
// with a 12-digit zero-padded sequence number (so lexicographic and
// numeric order agree), holding one frame of Magic at Version.
type FileSpec struct {
	Prefix, Suffix string
	Magic          string
	Version        uint16
}

// Name renders the canonical file name of sequence seq.
func (f FileSpec) Name(seq uint64) string {
	return fmt.Sprintf("%s%012d%s", f.Prefix, seq, f.Suffix)
}

// ReadFile reads and verifies the one frame in path, returning its
// payload and the format version it was written with (at most
// f.Version). Truncated, corrupt, wrong-magic and future-version files
// fail with the corresponding typed error.
func (f FileSpec) ReadFile(path string) ([]byte, uint16, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: opening %s: %w", path, err)
	}
	defer fh.Close()
	payload, version, err := ReadFrame(fh, f.Magic, f.Version)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: %s: %w", path, err)
	}
	return payload, version, nil
}

// StoreOptions is the write and retention policy of a Store.
type StoreOptions struct {
	// Dir is the store directory, created if missing.
	Dir string
	// Keep is how many files to retain (≤ 0: 3). Older ones are pruned
	// after each successful save.
	Keep int
	// WrapWriter, when set, wraps the frame writer inside the atomic
	// write protocol — the crash-injection hook: a writer that fails
	// mid-stream aborts the protocol exactly like a process death, and
	// the previous file must survive. Production leaves it nil.
	WrapWriter func(io.Writer) io.Writer
	// RetryAttempts is how many extra write attempts a failed save gets
	// before it is declared failed — transient filesystem errors
	// (ENOSPC while logs rotate, EIO on flaky storage) routinely clear
	// within milliseconds, and each attempt restarts the atomic protocol
	// on a fresh temp file so a partial write never leaks into a retry.
	// 0 uses the default (2); negative disables retrying. Encoding
	// errors are never retried — they are deterministic.
	RetryAttempts int
	// RetryBackoff is the wait before the first retry, doubling per
	// attempt (default 25ms).
	RetryBackoff time.Duration
}

// StoreStats counts a Store's lifecycle.
type StoreStats struct {
	// Saves is files written; Failures is saves that failed after
	// exhausting their retries (the previous file survives); Retries is
	// write attempts retried after a transient failure.
	Saves, Failures, Retries uint64
	// Restores is successful Restore walks; Rejected is files a walk
	// skipped (unreadable, or refused by the caller).
	Restores, Rejected uint64
}

// Store is a directory of numbered durable files: every save writes
// the next sequence atomically (WriteFileAtomic around one frame),
// retries transient write errors with doubling backoff, and prunes to
// the newest Keep; Restore walks newest to oldest past bad files. The
// pipeline checkpoints and the cluster manifests are both Stores.
type Store struct {
	// StoreOptions may be changed between saves (tests arm WrapWriter).
	StoreOptions
	spec FileSpec

	mu       sync.Mutex
	seq      uint64
	lastSize int64
	lastSave time.Time

	saves, failures, retries, restores, rejected atomic.Uint64
}

// OpenStore opens (creating if needed) the directory and positions the
// sequence counter after the newest existing file.
func OpenStore(spec FileSpec, opt StoreOptions) (*Store, error) {
	if opt.Dir == "" {
		return nil, errors.New("durable: store directory is required")
	}
	if opt.Keep <= 0 {
		opt.Keep = 3
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating %s: %w", opt.Dir, err)
	}
	s := &Store{StoreOptions: opt, spec: spec}
	seqs, err := s.list()
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		s.seq = seqs[len(seqs)-1]
	}
	return s, nil
}

// list returns the sequence numbers of the directory's canonically
// named files, ascending. Anything else (temp files, foreign names) is
// ignored.
func (s *Store) list() ([]uint64, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, fmt.Errorf("durable: reading %s: %w", s.Dir, err)
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		if _, err := fmt.Sscanf(name, s.spec.Prefix+"%d"+s.spec.Suffix, &seq); err != nil {
			continue
		}
		if name != s.spec.Name(seq) {
			continue
		}
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Path returns the path of sequence seq.
func (s *Store) Path(seq uint64) string { return filepath.Join(s.Dir, s.spec.Name(seq)) }

// Save encodes one payload and persists it as the next sequence, then
// prunes beyond Keep. On any failure — including an injected mid-write
// crash — the directory still holds the previous files, untouched.
func (s *Store) Save(encode func(io.Writer) error) error {
	var payload bytes.Buffer
	if err := encode(&payload); err != nil {
		s.failures.Add(1)
		return fmt.Errorf("durable: encoding %s payload: %w", s.spec.Magic, err)
	}
	s.mu.Lock()
	seq := s.seq + 1
	s.mu.Unlock()
	path := s.Path(seq)
	attempts := 1 + s.retryAttempts()
	backoff := s.RetryBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			s.retries.Add(1)
		}
		err = WriteFileAtomic(path, func(w io.Writer) error {
			if s.WrapWriter != nil {
				w = s.WrapWriter(w)
			}
			return WriteFrame(w, s.spec.Magic, s.spec.Version, payload.Bytes())
		})
		if err == nil {
			break
		}
	}
	if err != nil {
		// Only an exhausted save counts as a failure; recovered retries
		// are counted separately.
		s.failures.Add(1)
		return fmt.Errorf("durable: writing %s: %w", path, err)
	}
	s.mu.Lock()
	s.seq = seq
	s.lastSize = int64(payload.Len())
	s.lastSave = time.Now()
	s.mu.Unlock()
	s.saves.Add(1)
	return s.prune()
}

func (s *Store) retryAttempts() int {
	switch {
	case s.RetryAttempts < 0:
		return 0
	case s.RetryAttempts == 0:
		return 2
	}
	return s.RetryAttempts
}

// prune removes files beyond the newest Keep.
func (s *Store) prune() error {
	seqs, err := s.list()
	if err != nil {
		return err
	}
	for ; len(seqs) > s.Keep; seqs = seqs[1:] {
		if err := os.Remove(s.Path(seqs[0])); err != nil {
			return fmt.Errorf("durable: pruning %s: %w", s.Path(seqs[0]), err)
		}
	}
	return nil
}

// Load reads and verifies the file with exactly sequence seq, returning
// its payload and format version.
func (s *Store) Load(seq uint64) ([]byte, uint16, error) { return s.spec.ReadFile(s.Path(seq)) }

// Restore walks the files newest to oldest and hands each verified
// payload, with its format version, to accept; the first one accept
// takes (returns nil) ends the walk and its sequence is returned.
// Unreadable files and payloads accept refuses are skipped, counted as
// rejected, and their errors joined into err so the caller can log what
// was skipped. seq 0 means nothing was restored: err is nil when the
// directory held no files at all, and carries the rejection reasons
// when every candidate failed.
func (s *Store) Restore(accept func(seq uint64, payload []byte, version uint16) error) (uint64, error) {
	seqs, err := s.list()
	if err != nil {
		return 0, err
	}
	var failures []error
	for i := len(seqs) - 1; i >= 0; i-- {
		payload, version, err := s.Load(seqs[i])
		if err == nil {
			if err = accept(seqs[i], payload, version); err != nil {
				err = fmt.Errorf("durable: %s: %w", s.Path(seqs[i]), err)
			}
		}
		if err != nil {
			failures = append(failures, err)
			s.rejected.Add(1)
			continue
		}
		s.restores.Add(1)
		return seqs[i], errors.Join(failures...)
	}
	return 0, errors.Join(failures...)
}

// Seq returns the sequence number of the newest file (0 before any).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// LastSave returns when the newest file was written and its payload
// size (zero before any save this session).
func (s *Store) LastSave() (time.Time, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSave, s.lastSize
}

// Stats returns the lifecycle counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Saves:    s.saves.Load(),
		Failures: s.failures.Load(),
		Retries:  s.retries.Load(),
		Restores: s.restores.Load(),
		Rejected: s.rejected.Load(),
	}
}
