// Package persist is the crash-safe snapshot store under the serving
// stack's durable state: the verdict cache survives process death in
// a -state-dir as one snapshot file, and no failure mode of the disk —
// a torn write, a truncated file, flipped bits, a SIGKILL between
// write and fsync — may ever surface as anything worse than a cold
// start.
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
// checksum mismatch, trailing garbage, a file renamed from another
// snapshot's name — quarantines the file (renamed to *.corrupt, one
// log line) and returns ErrCorrupt, which every caller treats as
// "start empty". Corruption can cost cache warmth; it cannot cost a
// verdict, a crash, or a crash loop.
//
// Save refuses a payload over the 64 MiB record limit that Load
// enforces, so every snapshot the store writes is one it can read back.
//
// The internal/faultinject point persist.write fails a Save as a
// write error would, leaving the previous snapshot in place; the
// tests damage files from outside to drive the quarantine.
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

// ErrNotExist is returned by Load when no snapshot is stored (alias of
// fs.ErrNotExist for errors.Is ergonomics).
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

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	// Snapshots (0 or 1) and Bytes describe the resident snapshot file.
	Snapshots int
	Bytes     int64
	// Quarantines counts files that failed validation and were renamed
	// to *.corrupt.
	Quarantines int64
}

// Store holds one validated snapshot in a directory. All methods are
// safe for concurrent use.
type Store struct {
	dir  string
	name string // the snapshot's file name, kind-key.snap
	meta string // its metadata record, kind\x00key
	logf func(string, ...any)

	mu          sync.Mutex
	size        int64 // bytes of the resident snapshot; -1 when there is none
	quarantines int64
}

// Open prepares dir to hold the snapshot named kind-key.snap: dir is
// created if missing, orphaned temp files from a crash mid-write are
// deleted, and the resident snapshot is sized for Stats. logf receives
// one line per quarantined snapshot; nil discards. The snapshot is not
// validated here — validation is lazy, on Load, so a rotten snapshot
// cannot slow or fail startup.
func Open(dir, kind, key string, logf func(string, ...any)) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Store{dir: dir, name: kind + "-" + key + snapExt, meta: kind + "\x00" + key, logf: logf, size: -1}
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
		case name == s.name:
			if info, err := e.Info(); err == nil {
				s.size = info.Size()
			}
		}
	}
	return s, nil
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

// encode renders a complete snapshot file: magic, version, the
// metadata record binding the file to its kind/key, and the payload
// record.
func encode(meta string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], version)
	buf.Write(v[:])
	record(&buf, []byte(meta))
	record(&buf, payload)
	return buf.Bytes()
}

// decode validates a snapshot file end to end and returns its payload.
func decode(data []byte, meta string) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, errors.New("bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):headerLen]); v != version {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	got, rest, err := readRecord(data[headerLen:])
	if err != nil {
		return nil, err
	}
	if string(got) != meta {
		return nil, fmt.Errorf("metadata names %q, want %q", got, meta)
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

// Save atomically writes the payload as the snapshot: encode, write
// to a same-directory temp file, fsync, rename over the final name,
// fsync the directory. On return the snapshot is either durably the
// new bytes or untouched. A payload over maxRecordBytes, which Load
// would quarantine, is refused and nothing is written. The
// persist.write fault point fires before the write and fails it like
// any other write error.
func (s *Store) Save(ctx context.Context, payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("persist: %s payload of %d bytes exceeds the %d-byte record limit",
			s.name, len(payload), maxRecordBytes)
	}
	if err := faultinject.Fire(ctx, faultinject.PointPersistWrite); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	data := encode(s.meta, payload)
	tmp, err := writeTempSync(s.dir, s.name, data)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, s.name)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	syncDir(s.dir)
	s.mu.Lock()
	s.size = int64(len(data))
	s.mu.Unlock()
	return nil
}

// writeTempSync writes data to a uniquely-named *.tmp file in dir
// (unique so concurrent Saves cannot tear each other's temp file) and
// fsyncs it before closing.
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

// Load returns the validated payload of the snapshot. ErrNotExist
// means none is stored; ErrCorrupt means the file failed validation
// and has been quarantined (renamed to *.corrupt) — both tell the
// caller to start empty.
func (s *Store) Load() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, s.name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotExist
		}
		return nil, fmt.Errorf("persist: %w", err)
	}
	payload, derr := decode(data, s.meta)
	if derr != nil {
		s.quarantine(derr)
		return nil, fmt.Errorf("%w (%s: %v)", ErrCorrupt, s.name, derr)
	}
	return payload, nil
}

// quarantine renames the failed snapshot to *.corrupt (replacing any
// previous quarantine) so an operator can inspect it, and logs the one
// recovery line the crash-smoke contract greps for.
func (s *Store) quarantine(cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := filepath.Join(s.dir, s.name)
	dst := src + corrupt
	_ = os.Remove(dst)
	if err := os.Rename(src, dst); err != nil {
		// Even an unrenamable file must not be trusted again: drop it.
		_ = os.Remove(src)
	}
	s.size = -1
	s.quarantines++
	s.logf("persist: quarantined snapshot %s (%v); rebuilding from empty", s.name, cause)
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Quarantines: s.quarantines}
	if s.size >= 0 {
		st.Snapshots, st.Bytes = 1, s.size
	}
	return st
}
