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

	"repro/internal/faultinject"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	payload := []byte("hello\x00world\xff\xfe binary ok")
	if err := s.Save(context.Background(), "estg", "abc123", payload); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load(context.Background(), "estg", "abc123")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: got %q want %q", got, payload)
	}
	// Reopen indexes the snapshot.
	s2 := mustOpen(t, dir, Options{})
	if n := s2.Stats().Snapshots; n != 1 {
		t.Fatalf("reopened store indexes %d snapshots, want 1", n)
	}
	got, err = s2.Load(context.Background(), "estg", "abc123")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Load after reopen: %v / %q", err, got)
	}
}

func TestLoadMissing(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if _, err := s.Load(context.Background(), "estg", "nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestUnsafeKeysRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for _, key := range []string{"", "../escape", "a/b", "a b", "k\x00y"} {
		if err := s.Save(context.Background(), "estg", key, []byte("x")); err == nil {
			t.Errorf("Save accepted unsafe key %q", key)
		}
		if _, err := s.Load(context.Background(), "estg", key); err == nil {
			t.Errorf("Load accepted unsafe key %q", key)
		}
	}
}

func TestSaveOverwriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	ctx := context.Background()
	if err := s.Save(ctx, "estg", "k", []byte("version-one")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(ctx, "estg", "k", []byte("version-two")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load(ctx, "estg", "k")
	if err != nil || string(got) != "version-two" {
		t.Fatalf("Load: %v / %q", err, got)
	}
	if st := s.Stats(); st.Snapshots != 1 {
		t.Fatalf("want 1 snapshot, have %d", st.Snapshots)
	}
}

func TestOpenRemovesOrphanedTemp(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "estg-dead.snap.tmp")
	if err := os.WriteFile(orphan, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir, Options{})
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphaned temp file not removed: %v", err)
	}
}

// TestCorruptionFuzz is the crash-safety acceptance test: EVERY prefix
// truncation and EVERY single-byte corruption of a valid snapshot file
// must yield ErrCorrupt with the file quarantined — no panic, no
// partial restore — after which a clean rebuild (re-Save + Load) works.
func TestCorruptionFuzz(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	payload := []byte("learned-state-payload-0123456789")
	s := mustOpen(t, dir, Options{})
	if err := s.Save(ctx, "estg", "fuzz", payload); err != nil {
		t.Fatalf("Save: %v", err)
	}
	name, err := fileName("estg", "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, label string, mutated []byte) {
		t.Helper()
		var logged []string
		st := mustOpen(t, t.TempDir(), Options{Logf: func(f string, a ...any) {
			logged = append(logged, fmt.Sprintf(f, a...))
		}})
		p := filepath.Join(st.dir, name)
		if err := os.WriteFile(p, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		st.sizes[name] = int64(len(mutated))
		if _, err := st.Load(ctx, "estg", "fuzz"); !errors.Is(err, ErrCorrupt) {
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
		// Cold rebuild after quarantine must work.
		if err := st.Save(ctx, "estg", "fuzz", payload); err != nil {
			t.Fatalf("%s: rebuild Save: %v", label, err)
		}
		if got, err := st.Load(ctx, "estg", "fuzz"); err != nil || !bytes.Equal(got, payload) {
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

// TestRenamedSnapshotRejected: a snapshot file moved under a different
// key must fail the metadata check, not restore the wrong state.
func TestRenamedSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := mustOpen(t, dir, Options{})
	if err := s.Save(ctx, "estg", "aaa", []byte("state for aaa")); err != nil {
		t.Fatal(err)
	}
	from, _ := fileName("estg", "aaa")
	to, _ := fileName("estg", "bbb")
	if err := os.Rename(filepath.Join(dir, from), filepath.Join(dir, to)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	delete(s.sizes, from)
	s.sizes[to] = 1
	s.mu.Unlock()
	if _, err := s.Load(ctx, "estg", "bbb"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("renamed snapshot accepted: %v", err)
	}
}

// TestHugeLengthPrefixRejected: a corrupted length prefix claiming a
// multi-gigabyte record must be rejected before allocation.
func TestHugeLengthPrefixRejected(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := mustOpen(t, dir, Options{})
	if err := s.Save(ctx, "estg", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	name, _ := fileName("estg", "k")
	path := filepath.Join(dir, name)
	data, _ := os.ReadFile(path)
	// First record's length prefix sits right after the header.
	data[headerLen] = 0xFF
	data[headerLen+1] = 0xFF
	data[headerLen+2] = 0xFF
	data[headerLen+3] = 0x7F
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(ctx, "estg", "k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestShortWriteFaultLeavesTornFileThatQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	set, err := faultinject.Parse("persist.write=short-write:16")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate()
	ctx := faultinject.WithSet(context.Background(), set)
	err = s.Save(ctx, "estg", "torn", []byte("this payload will be torn"))
	var short *faultinject.ShortWriteError
	if !errors.As(err, &short) {
		t.Fatalf("want ShortWriteError, got %v", err)
	}
	name, _ := fileName("estg", "torn")
	info, statErr := os.Stat(filepath.Join(dir, name))
	if statErr != nil || info.Size() != 16 {
		t.Fatalf("torn file: %v / size %v", statErr, info)
	}
	if _, err := s.Load(context.Background(), "estg", "torn"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file accepted: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, name+corrupt)); err != nil {
		t.Fatalf("quarantine missing: %v", err)
	}
}

func TestCorruptReadFault(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Save(context.Background(), "estg", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	set, err := faultinject.Parse("persist.read=corrupt")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate()
	ctx := faultinject.WithSet(context.Background(), set)
	if _, err := s.Load(ctx, "estg", "k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt under corrupt fault, got %v", err)
	}
	if st := s.Stats(); st.Quarantines != 1 {
		t.Fatalf("want 1 quarantine, have %d", st.Quarantines)
	}
}

// TestSaveRefusesOversizePayload: a payload Load would quarantine for
// its record length is refused by Save, and the snapshot already
// stored under the key stays loadable.
func TestSaveRefusesOversizePayload(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	ctx := context.Background()
	if err := s.Save(ctx, "manifest", "designs", []byte("small")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(ctx, "manifest", "designs", make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("Save accepted a payload over the record limit")
	}
	got, err := s.Load(ctx, "manifest", "designs")
	if err != nil || string(got) != "small" {
		t.Fatalf("Load after refused Save = %q, %v; want \"small\"", got, err)
	}
	if q := s.Stats().Quarantines; q != 0 {
		t.Fatalf("quarantines = %d, want 0", q)
	}
}

// TestKeysListsKind: the directory lists each snapshot under its
// kind's prefix, so one key saved under two kinds keeps two payloads.
func TestKeysListsKind(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	ctx := context.Background()
	for _, k := range []string{"b", "a", "c"} {
		if err := s.Save(ctx, "estg", k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(ctx, "manifest", "a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	want := []string{"estg-a.snap", "estg-b.snap", "estg-c.snap", "manifest-a.snap"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("directory lists %v, want %v", got, want)
	}
	if got, err := s.Load(ctx, "manifest", "a"); err != nil || string(got) != "y" {
		t.Fatalf("Load(manifest, a) = %q, %v; want \"y\"", got, err)
	}
}

func TestConcurrentSaveLoad(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("key%d", g%4)
			for i := 0; i < 50; i++ {
				payload := []byte(fmt.Sprintf("payload-%d-%d", g, i))
				if err := s.Save(ctx, "estg", key, payload); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				if _, err := s.Load(ctx, "estg", key); err != nil && !errors.Is(err, ErrNotExist) {
					t.Errorf("Load: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
