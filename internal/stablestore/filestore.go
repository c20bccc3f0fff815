package stablestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FileStore is a crash-safe key/value store backed by an append-only log
// with per-record CRCs. It is the real-disk analogue of the simulator's
// in-memory stable store: writes are synchronous (fsync'ed), torn tail
// records are detected and discarded on open, and the log can be compacted.
//
// Record format (little endian):
//
//	magic   uint32 = 0x46545331 ("FTS1")
//	keyLen  uint32
//	valLen  uint32 (math.MaxUint32 marks a tombstone)
//	crc     uint32 over key || val
//	key     [keyLen]byte
//	val     [valLen]byte
type FileStore struct {
	path string
	f    logFile
	// size is the offset just past the last durably appended record: the
	// log's last-good length. A failed append truncates back to it, so
	// torn bytes can never sit in the log interior beneath a later
	// successful record (replay stops at the first bad record, silently
	// discarding everything after it).
	size int64
	// broken, once set, refuses further appends: a failed append could
	// not be rolled back, so the on-disk tail state is unknown. A
	// successful Compact rewrites the log from the in-memory index and
	// clears it.
	broken error
	// index maps keys to current values; the log is the truth, the map
	// is a cache rebuilt on open.
	index map[string][]byte
}

// logFile is the slice of *os.File the store uses; crash-injection tests
// substitute a fault-injecting wrapper.
type logFile interface {
	io.ReadWriteSeeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

const (
	recordMagic = 0x46545331
	tombstone   = ^uint32(0)
)

// ErrCorrupt reports a record whose checksum did not match in the interior
// of the log (a torn tail is silently truncated instead).
var ErrCorrupt = errors.New("stablestore: corrupt record in log interior")

// OpenFile opens (creating if needed) the store at path and replays its log.
func OpenFile(path string) (*FileStore, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("stablestore: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stablestore: %w", err)
	}
	s := &FileStore{path: path, f: f, index: make(map[string][]byte)}
	valid, err := s.replay()
	if err != nil {
		f.Close() //failtrans:errok open fails anyway; the replay error is the primary failure
		return nil, err
	}
	// Truncate any torn tail so future appends start on a record
	// boundary.
	if err := f.Truncate(valid); err != nil {
		f.Close() //failtrans:errok open fails anyway; the truncate error is the primary failure
		return nil, fmt.Errorf("stablestore: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close() //failtrans:errok open fails anyway; the seek error is the primary failure
		return nil, fmt.Errorf("stablestore: %w", err)
	}
	s.size = valid
	return s, nil
}

// replay scans the log, rebuilding the index, and returns the byte offset
// of the last valid record's end.
func (s *FileStore) replay() (int64, error) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("stablestore: %w", err)
	}
	r := bufio.NewReader(s.f)
	var off int64
	var hdr [16]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil // clean EOF or torn header: stop here
		}
		magic := binary.LittleEndian.Uint32(hdr[0:4])
		keyLen := binary.LittleEndian.Uint32(hdr[4:8])
		valLen := binary.LittleEndian.Uint32(hdr[8:12])
		crc := binary.LittleEndian.Uint32(hdr[12:16])
		if magic != recordMagic || keyLen > 1<<20 || (valLen != tombstone && valLen > 1<<28) {
			return off, nil // garbage tail
		}
		vLen := int(valLen)
		if valLen == tombstone {
			vLen = 0
		}
		buf := make([]byte, int(keyLen)+vLen)
		if _, err := io.ReadFull(r, buf); err != nil {
			return off, nil // torn body
		}
		if crc32.ChecksumIEEE(buf) != crc {
			// A bad checksum at the tail is a torn write; anywhere
			// else it is corruption.
			if _, err := r.Peek(1); err != nil {
				return off, nil
			}
			return off, ErrCorrupt
		}
		key := string(buf[:keyLen])
		if valLen == tombstone {
			delete(s.index, key)
		} else {
			s.index[key] = append([]byte(nil), buf[keyLen:]...)
		}
		off += int64(len(hdr)) + int64(len(buf))
	}
}

// appendRecord writes and syncs one record. On any failure it rolls the
// log back to the last-good offset so the partial bytes cannot become
// interior garbage under a later successful append.
func (s *FileStore) appendRecord(key string, val []byte, del bool) error {
	if s.broken != nil {
		return s.broken
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], recordMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(key)))
	if del {
		binary.LittleEndian.PutUint32(hdr[8:12], tombstone)
	} else {
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(val)))
	}
	body := make([]byte, 0, len(key)+len(val))
	body = append(body, key...)
	if !del {
		body = append(body, val...)
	}
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(body))
	if _, err := s.f.Write(hdr[:]); err != nil {
		return s.failAppend(err)
	}
	if _, err := s.f.Write(body); err != nil {
		return s.failAppend(err)
	}
	if err := s.f.Sync(); err != nil {
		return s.failAppend(err)
	}
	s.size += int64(len(hdr)) + int64(len(body))
	return nil
}

// failAppend handles a torn append: truncate back to the last durable
// record boundary and reposition the write offset there. If the rollback
// itself fails, the tail state on disk is unknown and the store refuses
// all further appends (reads still serve the in-memory index; a Compact
// rewrites the log and restores write availability).
func (s *FileStore) failAppend(cause error) error {
	if terr := s.truncateToLastGood(); terr != nil {
		s.broken = fmt.Errorf("stablestore: append failed (%v), rollback to offset %d failed (%v): refusing further appends", cause, s.size, terr)
	}
	return fmt.Errorf("stablestore: %w", cause)
}

// truncateToLastGood discards any partially written tail and makes the
// truncation durable.
func (s *FileStore) truncateToLastGood() error {
	if err := s.f.Truncate(s.size); err != nil {
		return err
	}
	if _, err := s.f.Seek(s.size, io.SeekStart); err != nil {
		return err
	}
	return s.f.Sync()
}

// Put durably records key=val.
func (s *FileStore) Put(key string, val []byte) error {
	if err := s.appendRecord(key, val, false); err != nil {
		return err
	}
	s.index[key] = append([]byte(nil), val...)
	return nil
}

// Get returns the current value of key.
func (s *FileStore) Get(key string) ([]byte, bool) {
	v, ok := s.index[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Delete durably removes key.
func (s *FileStore) Delete(key string) error {
	if _, ok := s.index[key]; !ok {
		return nil
	}
	if err := s.appendRecord(key, nil, true); err != nil {
		return err
	}
	delete(s.index, key)
	return nil
}

// Keys returns all live keys, sorted.
func (s *FileStore) Keys() []string {
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Compact rewrites the log to contain only live records, atomically
// replacing the old file. A successful compaction also clears the
// refusing-appends state a failed, unrollbackable append leaves behind:
// the fresh log is rebuilt entirely from the in-memory index.
func (s *FileStore) Compact() error {
	tmp := s.path + ".compact"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stablestore: %w", err)
	}
	old, oldSize, oldBroken := s.f, s.size, s.broken
	s.f, s.size, s.broken = nf, 0, nil
	restore := func() {
		s.f, s.size, s.broken = old, oldSize, oldBroken
		nf.Close() //failtrans:errok rolling back a failed compaction; the temp file is removed next, so its close error carries no durability
		os.Remove(tmp)
	}
	for _, k := range s.Keys() {
		if err := s.appendRecord(k, s.index[k], false); err != nil {
			restore()
			return err
		}
	}
	if err := nf.Sync(); err != nil {
		restore()
		return fmt.Errorf("stablestore: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		restore()
		return fmt.Errorf("stablestore: %w", err)
	}
	// The rename is not durable until the directory entry is: without a
	// parent-directory fsync a crash can lose the rename entirely or
	// resurrect the old (longer) log.
	err = syncDir(filepath.Dir(s.path))
	old.Close()
	if err != nil {
		return fmt.Errorf("stablestore: sync directory after compact: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a renamed entry inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }
