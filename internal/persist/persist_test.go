package persist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The snapshot every test stores: the name the serving layer uses.
const (
	testKind = "verdicts"
	testKey  = "cache"
	testName = testKind + "-" + testKey + snapExt
)

func mustOpen(t *testing.T, dir string, logf func(string, ...any)) *Store {
	t.Helper()
	s, err := Open(dir, testKind, testKey, logf)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, nil)
	payload := []byte("hello\x00world\xff\xfe binary ok")
	if err := s.Save(context.Background(), payload); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: got %q want %q", got, payload)
	}
	if _, err := os.Stat(filepath.Join(dir, testName)); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	// Reopen sizes the snapshot.
	s2 := mustOpen(t, dir, nil)
	if st := s2.Stats(); st.Snapshots != 1 || st.Bytes <= int64(len(payload)) {
		t.Fatalf("reopened store stats %+v, want 1 snapshot over %d bytes", st, len(payload))
	}
	got, err = s2.Load()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Load after reopen: %v / %q", err, got)
	}
}

func TestLoadMissing(t *testing.T) {
	s := mustOpen(t, t.TempDir(), nil)
	if _, err := s.Load(); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if st := s.Stats(); st.Snapshots != 0 || st.Bytes != 0 {
		t.Fatalf("empty store stats %+v", st)
	}
}

func TestSaveOverwriteIsAtomic(t *testing.T) {
	s := mustOpen(t, t.TempDir(), nil)
	ctx := context.Background()
	if err := s.Save(ctx, []byte("version-one")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(ctx, []byte("version-two")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load()
	if err != nil || string(got) != "version-two" {
		t.Fatalf("Load: %v / %q", err, got)
	}
	if st := s.Stats(); st.Snapshots != 1 {
		t.Fatalf("want 1 snapshot, have %d", st.Snapshots)
	}
}

func TestOpenRemovesOrphanedTemp(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, testName+".123.tmp")
	if err := os.WriteFile(orphan, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir, nil)
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphaned temp file not removed: %v", err)
	}
}

// TestCorruptionFuzz is the crash-safety acceptance test: EVERY prefix
// truncation and EVERY single-byte corruption of a valid snapshot file
// must yield ErrCorrupt with the file quarantined, logged and counted
// — no panic, no partial restore — after which a clean rebuild
// (re-Save + Load) works.
func TestCorruptionFuzz(t *testing.T) {
	ctx := context.Background()
	payload := []byte("learned-state-payload-0123456789")
	valid := encode(testKind+"\x00"+testKey, payload)

	check := func(t *testing.T, label string, mutated []byte) {
		t.Helper()
		dir := t.TempDir()
		p := filepath.Join(dir, testName)
		if err := os.WriteFile(p, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		var logged []string
		st := mustOpen(t, dir, func(f string, a ...any) {
			logged = append(logged, fmt.Sprintf(f, a...))
		})
		if _, err := st.Load(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", label, err)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: corrupt file not moved away", label)
		}
		if _, err := os.Stat(p + corrupt); err != nil {
			t.Fatalf("%s: quarantine file missing: %v", label, err)
		}
		if len(logged) == 0 || !strings.Contains(logged[0], "quarantined") {
			t.Fatalf("%s: no quarantine log line (got %q)", label, logged)
		}
		if q := st.Stats().Quarantines; q != 1 {
			t.Fatalf("%s: quarantines = %d, want 1", label, q)
		}
		// Cold rebuild after quarantine must work.
		if err := st.Save(ctx, payload); err != nil {
			t.Fatalf("%s: rebuild Save: %v", label, err)
		}
		if got, err := st.Load(); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: rebuild Load: %v", label, err)
		}
	}

	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			check(t, fmt.Sprintf("truncate@%d", n), valid[:n])
		}
	})
	t.Run("byte-flip", func(t *testing.T) {
		for i := range valid {
			mutated := append([]byte(nil), valid...)
			mutated[i] ^= 0xFF
			check(t, fmt.Sprintf("flip@%d", i), mutated)
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		check(t, "trailing", append(append([]byte(nil), valid...), 0xAB, 0xCD))
	})
}

// TestRenamedSnapshotRejected: a file that carries another snapshot's
// metadata must fail the metadata check, not restore the wrong state.
func TestRenamedSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	other, err := Open(dir, testKind, "other", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Save(context.Background(), []byte("state for other")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, testKind+"-other"+snapExt), filepath.Join(dir, testName)); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, nil)
	if _, err := s.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("renamed snapshot accepted: %v", err)
	}
	if q := s.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantines = %d, want 1", q)
	}
}

// TestHugeLengthPrefixRejected: a corrupted length prefix claiming a
// multi-gigabyte record must be rejected before allocation.
func TestHugeLengthPrefixRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, nil)
	if err := s.Save(context.Background(), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, testName)
	data, _ := os.ReadFile(path)
	// First record's length prefix sits right after the header.
	data[headerLen] = 0xFF
	data[headerLen+1] = 0xFF
	data[headerLen+2] = 0xFF
	data[headerLen+3] = 0x7F
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestSaveRefusesOversizePayload: a payload Load would quarantine for
// its record length is refused by Save, and the snapshot already
// stored stays loadable.
func TestSaveRefusesOversizePayload(t *testing.T) {
	s := mustOpen(t, t.TempDir(), nil)
	ctx := context.Background()
	if err := s.Save(ctx, []byte("small")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(ctx, make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("Save accepted a payload over the record limit")
	}
	got, err := s.Load()
	if err != nil || string(got) != "small" {
		t.Fatalf("Load after refused Save = %q, %v; want \"small\"", got, err)
	}
	if q := s.Stats().Quarantines; q != 0 {
		t.Fatalf("quarantines = %d, want 0", q)
	}
}

func TestConcurrentSaveLoad(t *testing.T) {
	s := mustOpen(t, t.TempDir(), nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				payload := []byte(fmt.Sprintf("payload-%d-%d", g, i))
				if err := s.Save(ctx, payload); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				if _, err := s.Load(); err != nil {
					t.Errorf("Load: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
