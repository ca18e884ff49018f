package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

var testSpec = FileSpec{Prefix: "snap-", Suffix: ".snp", Magic: "TESTSNP", Version: 2}

func openTestStore(t *testing.T, opt StoreOptions) *Store {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	s, err := OpenStore(testSpec, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func saveString(s *Store, v string) error {
	return s.Save(func(w io.Writer) error {
		_, err := io.WriteString(w, v)
		return err
	})
}

// rewrite replaces the file of seq with edit(its bytes).
func rewrite(t *testing.T, s *Store, seq uint64, edit func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(s.Path(seq))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(seq), edit(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// restoreAny restores the newest readable payload.
func restoreAny(s *Store) (uint64, string, error) {
	var got string
	seq, err := s.Restore(func(_ uint64, payload []byte, _ uint16) error {
		got = string(payload)
		return nil
	})
	return seq, got, err
}

// TestStoreMatrix is the one corruption and lifecycle matrix of the
// numbered snapshot store that both the pipeline checkpoints and the
// cluster manifests are built on: each case saves gen-1..gen-N, damages
// the directory, and checks what Restore picks and which typed errors
// it reports for the files it skipped.
func TestStoreMatrix(t *testing.T) {
	cases := []struct {
		name  string
		saves int
		keep  int
		// damage breaks the directory after the saves.
		damage func(t *testing.T, s *Store)
		// wantSeq/wantPayload is what Restore must pick (0: cold start).
		wantSeq     uint64
		wantPayload string
		// wantErr must be joined into Restore's error (nil: no error).
		wantErr error
		// wantFiles is the canonical files left on disk.
		wantFiles []uint64
	}{
		{
			name: "torn-tail", saves: 2,
			damage: func(t *testing.T, s *Store) {
				rewrite(t, s, 2, func(b []byte) []byte { return b[:len(b)/2] })
			},
			wantSeq: 1, wantPayload: "gen-1", wantErr: ErrTruncated, wantFiles: []uint64{1, 2},
		},
		{
			name: "bad-crc", saves: 2,
			damage: func(t *testing.T, s *Store) {
				rewrite(t, s, 2, func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
			},
			wantSeq: 1, wantPayload: "gen-1", wantErr: ErrChecksum, wantFiles: []uint64{1, 2},
		},
		{
			name: "wrong-magic", saves: 2,
			damage: func(t *testing.T, s *Store) {
				rewrite(t, s, 2, func(b []byte) []byte { copy(b, "OTHERMAG"); return b })
			},
			wantSeq: 1, wantPayload: "gen-1", wantErr: ErrBadMagic, wantFiles: []uint64{1, 2},
		},
		{
			name: "future-version", saves: 2,
			damage: func(t *testing.T, s *Store) {
				rewrite(t, s, 2, func(b []byte) []byte { b[MagicLen] = 0x7f; return b })
			},
			wantSeq: 1, wantPayload: "gen-1", wantErr: ErrFutureVersion, wantFiles: []uint64{1, 2},
		},
		{
			name: "crash-mid-write", saves: 2,
			damage: func(t *testing.T, s *Store) {
				// The third save dies at varying depths into its 27-byte frame; with
				// retries off each is one aborted atomic write.
				s.RetryAttempts = -1
				for _, limit := range []int64{0, 5, HeaderLen - 1, HeaderLen + 2} {
					s.WrapWriter = func(w io.Writer) io.Writer { return faults.NewCrashWriter(w, limit) }
					if err := saveString(s, "gen-3"); !errors.Is(err, faults.ErrInjectedCrash) {
						t.Fatalf("crashed save: err = %v, want ErrInjectedCrash", err)
					}
				}
				s.WrapWriter = nil
				// An aborted write leaves no temp litter behind.
				entries, err := os.ReadDir(s.Dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if !strings.HasSuffix(e.Name(), testSpec.Suffix) {
						t.Errorf("crashed save left stray file %q", e.Name())
					}
				}
				if got := s.Stats().Failures; got != 4 {
					t.Errorf("Failures = %d, want 4", got)
				}
			},
			wantSeq: 2, wantPayload: "gen-2", wantFiles: []uint64{1, 2},
		},
		{
			name: "non-canonical-names", saves: 1,
			damage: func(t *testing.T, s *Store) {
				for _, name := range []string{"README", "snap-abc.snp", "snap-9.tmp", "snap-9.snp", "snap-000000000009.snp.tmp"} {
					if err := os.WriteFile(filepath.Join(s.Dir, name), []byte("x"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			},
			wantSeq: 1, wantPayload: "gen-1", wantFiles: []uint64{1},
		},
		{
			name: "keep-k-pruning", saves: 5, keep: 2,
			wantSeq: 5, wantPayload: "gen-5", wantFiles: []uint64{4, 5},
		},
		{
			name: "cold-start-empty", saves: 0,
			wantSeq: 0, wantFiles: nil,
		},
		{
			name: "cold-start-all-invalid", saves: 2,
			damage: func(t *testing.T, s *Store) {
				for seq := uint64(1); seq <= 2; seq++ {
					rewrite(t, s, seq, func([]byte) []byte { return []byte("definitely not a frame") })
				}
			},
			wantSeq: 0, wantErr: ErrBadMagic, wantFiles: []uint64{1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTestStore(t, StoreOptions{Keep: tc.keep})
			for i := 1; i <= tc.saves; i++ {
				if err := saveString(s, fmt.Sprintf("gen-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.damage != nil {
				tc.damage(t, s)
			}
			seq, got, err := restoreAny(s)
			if seq != tc.wantSeq || got != tc.wantPayload {
				t.Fatalf("Restore = (%d, %q, %v), want (%d, %q)", seq, got, err, tc.wantSeq, tc.wantPayload)
			}
			if tc.wantErr == nil && err != nil {
				t.Errorf("Restore err = %v, want none", err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("Restore err = %v, want %v joined in", err, tc.wantErr)
			}
			files, err := s.list()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(files) != fmt.Sprint(tc.wantFiles) {
				t.Errorf("files on disk = %v, want %v", files, tc.wantFiles)
			}
		})
	}
}

// A reopened store continues the sequence, and Load reads one exact
// sequence number.
func TestStoreReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, StoreOptions{Dir: dir})
	for _, v := range []string{"gen-1", "gen-2"} {
		if err := saveString(s, v); err != nil {
			t.Fatal(err)
		}
	}
	s = openTestStore(t, StoreOptions{Dir: dir})
	if s.Seq() != 2 {
		t.Fatalf("reopened Seq = %d, want 2", s.Seq())
	}
	if err := saveString(s, "gen-3"); err != nil {
		t.Fatal(err)
	}
	if got, version, err := s.Load(1); err != nil || string(got) != "gen-1" || version != testSpec.Version {
		t.Fatalf("Load(1) = (%q, %d, %v), want gen-1 at version %d", got, version, err, testSpec.Version)
	}
	if _, _, err := s.Load(9); err == nil {
		t.Fatal("Load of a missing sequence succeeded")
	}
}

// A file written at an older format version is read, and Load and
// Restore report the version it was written with, so the caller can
// decode the older layout.
func TestStoreReportsOlderFrameVersion(t *testing.T) {
	s := openTestStore(t, StoreOptions{})
	if err := saveString(s, "gen-1"); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(s.Path(2), func(w io.Writer) error {
		return WriteFrame(w, testSpec.Magic, testSpec.Version-1, []byte("old-2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, version, err := s.Load(2); err != nil || string(got) != "old-2" || version != testSpec.Version-1 {
		t.Fatalf("Load(2) = (%q, %d, %v), want old-2 at version %d", got, version, err, testSpec.Version-1)
	}
	var versions []uint16
	seq, err := s.Restore(func(_ uint64, _ []byte, version uint16) error {
		versions = append(versions, version)
		if version != testSpec.Version {
			return errors.New("older version refused")
		}
		return nil
	})
	if seq != 1 || err == nil || fmt.Sprint(versions) != fmt.Sprint([]uint16{testSpec.Version - 1, testSpec.Version}) {
		t.Fatalf("Restore = (%d, %v) after versions %v, want seq 1 past the older file", seq, err, versions)
	}
}

// A payload the caller refuses is skipped like a damaged file: counted
// rejected, its reason joined, and the walk continues to the next.
func TestStoreRestoreSkipsRefusedPayload(t *testing.T) {
	s := openTestStore(t, StoreOptions{})
	for _, v := range []string{"gen-1", "gen-2"} {
		if err := saveString(s, v); err != nil {
			t.Fatal(err)
		}
	}
	refused := errors.New("refused")
	seq, err := s.Restore(func(_ uint64, payload []byte, _ uint16) error {
		if string(payload) == "gen-2" {
			return refused
		}
		return nil
	})
	if seq != 1 || !errors.Is(err, refused) {
		t.Fatalf("Restore = (%d, %v), want (1, refused)", seq, err)
	}
	if st := s.Stats(); st.Restores != 1 || st.Rejected != 1 {
		t.Errorf("Stats = %+v, want 1 restore, 1 rejected", st)
	}
}
