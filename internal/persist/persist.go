// Package persist is the crash-safe snapshot store under the serving
// stack's durable state: the verdict cache survives process death in
// a -state-dir, and no
// failure mode of the disk — a torn write, a truncated file, flipped
// bits, a SIGKILL between write and fsync — may ever surface as
// anything worse than a cold start.
//
// The safety argument has two halves. Writes are atomic: a snapshot is
// encoded in memory, written to a same-directory temp file, fsynced,
// and renamed over the final name (the directory is fsynced after), so
// a reader only ever sees the old complete file or the new complete
// file; a crash mid-write leaves a *.tmp orphan that Open deletes.
// Reads trust nothing: the file carries a magic header, a format
// version, and length-prefixed CRC-checked records (a metadata record
// naming the kind/key it was saved under, then the payload), and any
// deviation — short header, bad magic, impossible record length,
// checksum mismatch, trailing garbage, a file renamed under a
// different key — quarantines the file (renamed to *.corrupt, one log
// line) and returns ErrCorrupt, which every caller treats as "start
// empty". Corruption can cost cache warmth; it cannot cost a verdict,
// a crash, or a crash loop.
//
// Save refuses a payload over the 64 MiB record limit that Load
// enforces, so every snapshot the store writes is one it can read back.
// The store keeps every snapshot it is given; its size follows from
// what its callers save.
//
// The internal/faultinject points persist.write (mode short-write:N —
// the encoded snapshot is truncated at N bytes and lands torn) and
// persist.read (mode corrupt — a byte of the read-back is flipped)
// make both recovery paths testable on demand.
package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/faultinject"
)

// ErrCorrupt is returned by Load when a snapshot file fails
// validation; the file has been quarantined and the caller should
// proceed as if the snapshot never existed.
var ErrCorrupt = errors.New("persist: snapshot corrupt")

// ErrNotExist is returned by Load when no snapshot is stored under the
// kind/key (alias of fs.ErrNotExist for errors.Is ergonomics).
var ErrNotExist = fs.ErrNotExist

const (
	magic     = "ASRTSNP1" // 8 bytes
	version   = uint32(1)
	snapExt   = ".snap"
	tmpExt    = ".tmp"
	corrupt   = ".corrupt"
	headerLen = len(magic) + 4
	// maxRecordBytes bounds a single record so a corrupted length
	// prefix cannot ask for a multi-gigabyte allocation; Save refuses
	// a payload over it.
	maxRecordBytes = 64 << 20
)

// Options tunes a Store.
type Options struct {
	// Logf receives one line per quarantined snapshot; nil discards.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	// Snapshots and Bytes describe the resident *.snap files.
	Snapshots int
	Bytes     int64
	// Quarantines counts files that failed validation and were renamed
	// to *.corrupt.
	Quarantines int64
}

// Store is a directory of validated snapshots. All methods are safe
// for concurrent use.
type Store struct {
	dir  string
	logf func(string, ...any)

	mu          sync.Mutex
	sizes       map[string]int64 // resident snapshot file name -> bytes
	quarantines int64
}

// Open prepares dir as a snapshot store: it is created if missing,
// orphaned temp files from a crash mid-write are deleted, and the
// resident snapshots are indexed for Stats. Existing files
// are not validated here — validation is lazy, on Load, so one rotten
// snapshot cannot slow or fail startup.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Store{dir: dir, logf: logf, sizes: map[string]int64{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpExt):
			// A crash between write and rename: the atomic protocol
			// makes the orphan meaningless — the final file is either
			// the previous complete snapshot or absent.
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, snapExt):
			if info, err := e.Info(); err == nil {
				s.sizes[name] = info.Size()
			}
		}
	}
	return s, nil
}

// fileName maps a kind/key pair to its snapshot file name. Keys are
// restricted to filename-safe characters (fixed snapshot names in
// practice); anything else is rejected at Save/Load.
func fileName(kind, key string) (string, error) {
	for _, part := range [2]string{kind, key} {
		if part == "" {
			return "", fmt.Errorf("persist: empty kind or key")
		}
		for _, r := range part {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
				r >= '0' && r <= '9' || r == '.' || r == '_' || r == '-') {
				return "", fmt.Errorf("persist: key %q contains unsafe character %q", part, r)
			}
		}
	}
	return kind + "-" + key + snapExt, nil
}

// record appends one length-prefixed CRC-checked record to buf.
func record(buf *bytes.Buffer, payload []byte) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf.Write(hdr[:])
	buf.Write(payload)
}

// readRecord consumes one record from data, validating the length
// prefix against the remaining bytes and the payload against its CRC.
func readRecord(data []byte) (payload, rest []byte, err error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("truncated record header (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if n > maxRecordBytes || int(n) > len(data)-8 {
		return nil, nil, fmt.Errorf("record length %d exceeds remaining %d bytes", n, len(data)-8)
	}
	payload = data[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, errors.New("record checksum mismatch")
	}
	return payload, data[8+n:], nil
}

// encode renders a complete snapshot file: magic, version, a metadata
// record binding the file to its kind/key, and the payload record.
func encode(kind, key string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], version)
	buf.Write(v[:])
	record(&buf, []byte(kind+"\x00"+key))
	record(&buf, payload)
	return buf.Bytes()
}

// decode validates a snapshot file end to end and returns its payload.
func decode(data []byte, kind, key string) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, errors.New("bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):headerLen]); v != version {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	meta, rest, err := readRecord(data[headerLen:])
	if err != nil {
		return nil, err
	}
	if string(meta) != kind+"\x00"+key {
		return nil, fmt.Errorf("metadata names %q, want %s/%s", meta, kind, key)
	}
	payload, rest, err := readRecord(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return payload, nil
}

// Save atomically writes the payload as the snapshot for kind/key:
// encode, write to a same-directory temp file, fsync, rename over the
// final name, fsync the directory. On return the snapshot is either
// durably the new bytes or untouched. A payload over maxRecordBytes,
// which Load would quarantine, is refused and nothing is written. The
// persist.write fault point fires before the write; a short-write rule
// truncates the encoded file at N bytes (the torn artifact a crash
// leaves) and the error is returned after the torn bytes land, so
// recovery is testable.
func (s *Store) Save(ctx context.Context, kind, key string, payload []byte) error {
	name, err := fileName(kind, key)
	if err != nil {
		return err
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("persist: %s payload of %d bytes exceeds the %d-byte record limit",
			name, len(payload), maxRecordBytes)
	}
	data := encode(kind, key, payload)
	var injected error
	if err := faultinject.Fire(ctx, faultinject.PointPersistWrite); err != nil {
		var short *faultinject.ShortWriteError
		if !errors.As(err, &short) {
			return err
		}
		n := short.N
		if n > len(data) {
			n = len(data)
		}
		data = data[:n]
		injected = err
	}
	final := filepath.Join(s.dir, name)
	tmp, err := writeTempSync(s.dir, name, data)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	syncDir(s.dir)
	s.mu.Lock()
	s.sizes[name] = int64(len(data))
	s.mu.Unlock()
	return injected
}

// writeTempSync writes data to a uniquely-named *.tmp file in dir
// (unique so concurrent Saves of the same key cannot tear each other's
// temp file) and fsyncs it before closing.
func writeTempSync(dir, name string, data []byte) (string, error) {
	f, err := os.CreateTemp(dir, name+".*"+tmpExt)
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	cleanup := func(err error) (string, error) {
		f.Close()
		_ = os.Remove(tmp)
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return "", err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		_ = os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// syncDir fsyncs a directory so a just-completed rename is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Load returns the validated payload stored under kind/key.
// ErrNotExist means no snapshot is stored; ErrCorrupt means the file
// failed validation and has been quarantined (renamed to *.corrupt) —
// both tell the caller to start empty. The persist.read fault point
// fires after the read; a corrupt rule flips a byte so the validation
// path is exercised end to end.
func (s *Store) Load(ctx context.Context, kind, key string) ([]byte, error) {
	name, err := fileName(kind, key)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotExist
		}
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := faultinject.Fire(ctx, faultinject.PointPersistRead); err != nil {
		var corr *faultinject.CorruptError
		if !errors.As(err, &corr) {
			return nil, err
		}
		if len(data) > 0 {
			data[len(data)/2] ^= 0xFF
		}
	}
	payload, derr := decode(data, kind, key)
	if derr != nil {
		s.quarantine(name, derr)
		return nil, fmt.Errorf("%w (%s: %v)", ErrCorrupt, name, derr)
	}
	return payload, nil
}

// quarantine renames a failed snapshot to *.corrupt (replacing any
// previous quarantine of the same name) so an operator can inspect it,
// and logs the one recovery line the crash-smoke contract greps for.
func (s *Store) quarantine(name string, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := filepath.Join(s.dir, name)
	dst := src + corrupt
	_ = os.Remove(dst)
	if err := os.Rename(src, dst); err != nil {
		// Even an unrenamable file must not be trusted again: drop it.
		_ = os.Remove(src)
	}
	delete(s.sizes, name)
	s.quarantines++
	s.logf("persist: quarantined snapshot %s (%v); rebuilding from empty", name, cause)
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Snapshots: len(s.sizes), Quarantines: s.quarantines}
	for _, n := range s.sizes {
		st.Bytes += n
	}
	return st
}
