package cache

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"checkpointsim/internal/snapshot"
)

// DiskRecordVersion is the on-disk record payload layout version. Bump it
// on any layout change; records sealed under another version are skipped
// at open and treated as misses at read, never misdecoded.
const DiskRecordVersion = 1

// diskLogName is the single append-only log file inside the store's dir.
const diskLogName = "cache.log"

// EncodeDiskRecord renders one cache entry as a sealed on-disk record:
// snapshot.Seal over a payload of length-prefixed key then value. The
// sealed framing (magic, version, SHA-256 trailer) is what lets a restarted
// process trust the log: a truncated or bit-flipped record fails Open or
// the decoder and degrades to a cold run, it is never served.
func EncodeDiskRecord(key string, val []byte) []byte {
	c := snapshot.Writer()
	c.Str(&key)
	c.Blob(&val)
	return snapshot.Seal(DiskRecordVersion, c.Bytes())
}

// DecodeDiskRecord verifies and decodes a sealed record back into its key
// and value. Every corruption path returns an error wrapping the snapshot
// package's taxonomy (ErrTruncated, ErrMagic, ErrDigest, ErrVersion,
// ErrCorrupt) — callers turn any of them into a cache miss.
func DecodeDiskRecord(rec []byte) (key string, val []byte, err error) {
	version, payload, err := snapshot.Open(rec)
	if err != nil {
		return "", nil, err
	}
	if version != DiskRecordVersion {
		return "", nil, fmt.Errorf("%w: disk record version %d, want %d",
			snapshot.ErrVersion, version, DiskRecordVersion)
	}
	c := snapshot.Reader(payload)
	c.Str(&key)
	c.Blob(&val)
	if err := c.Finish(); err != nil {
		return "", nil, err
	}
	return key, val, nil
}

// DiskStore is the persistent cache backend: an append-only log of sealed
// records in a directory, so warm results survive process restarts and can
// be committed into CI as a pre-seeded cache. Each Put appends (and syncs)
// one record; the newest record for a key wins, both in the live index and
// on replay. There is no eviction — the log is bounded by rejecting
// admissions past the byte budget (compaction is a restart with a fresh
// dir). Reads go back to the file and re-verify the record's digest, so
// bit rot between startup and read is detected, not served.
//
// A DiskStore assumes a single writing process per directory; cluster
// workers each own their own dir.
type DiskStore struct {
	mu     sync.Mutex
	f      *os.File
	size   int64
	budget int64
	index  map[string]diskRef
	bytes  int64 // live payload bytes (newest record per key)
	stats  StoreStats
}

// diskRef locates one sealed record inside the log.
type diskRef struct {
	off int64
	n   int64
	len int64 // payload value length, for bytes accounting on overwrite
}

// NewDiskStore opens (creating if needed) the append-only store in dir,
// replaying the existing log into the index. Replay stops at the first
// damaged record — a torn tail write after a crash, or mid-file rot — and
// truncates the log there: everything before it is digest-verified and
// warm, everything at or after it is forgotten and will be recomputed
// cold. budget caps the log size; non-positive selects 256 MiB.
func NewDiskStore(dir string, budget int64) (*DiskStore, error) {
	if budget <= 0 {
		budget = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, diskLogName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st := &DiskStore{f: f, budget: budget, index: make(map[string]diskRef)}
	if err := st.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

// replay scans the log, verifying every record and indexing the newest
// per key. Damage truncates the log at the last intact record boundary.
func (s *DiskStore) replay() error {
	data, err := os.ReadFile(s.f.Name())
	if err != nil {
		return err
	}
	off := int64(0)
	for off < int64(len(data)) {
		n, w := binary.Uvarint(data[off:])
		if w <= 0 || off+int64(w)+int64(n) > int64(len(data)) {
			break // torn length prefix or cut-short record
		}
		rec := data[off+int64(w) : off+int64(w)+int64(n)]
		key, val, err := DecodeDiskRecord(rec)
		if err != nil {
			s.stats.Corrupt++
			break
		}
		if old, ok := s.index[key]; ok {
			s.bytes -= old.len
		}
		s.index[key] = diskRef{off: off + int64(w), n: int64(n), len: int64(len(val))}
		s.bytes += int64(len(val))
		off += int64(w) + int64(n)
	}
	if off < int64(len(data)) {
		// Drop the damaged tail so future appends land on a clean boundary
		// (an append after a torn record would be unreachable on replay).
		if err := s.f.Truncate(off); err != nil {
			return err
		}
	}
	s.size = off
	return nil
}

// Get reads the newest record for key back from the log and re-verifies it.
// Any verification failure unindexes the key and reports a miss: the
// caller recomputes, and the eventual Put appends a fresh record.
func (s *DiskStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.index[key]
	if !ok || s.f == nil {
		return nil, false
	}
	rec := make([]byte, ref.n)
	if _, err := s.f.ReadAt(rec, ref.off); err != nil {
		s.dropLocked(key, ref)
		return nil, false
	}
	gotKey, val, err := DecodeDiskRecord(rec)
	if err != nil || gotKey != key {
		s.dropLocked(key, ref)
		s.stats.Corrupt++
		return nil, false
	}
	s.stats.DiskHits++
	return val, true
}

// dropLocked removes a key whose record failed verification. The record's
// bytes stay in the log (append-only), only the index forgets them.
func (s *DiskStore) dropLocked(key string, ref diskRef) {
	delete(s.index, key)
	s.bytes -= ref.len
}

// Put appends a sealed record and syncs it. Admission is declined — never
// erroring the caller's request — when the record would push the log past
// its budget, or when the append itself fails (disk full): the cache is an
// optimization, and a value that did not land is simply recomputed later.
func (s *DiskStore) Put(key string, val []byte) {
	rec := EncodeDiskRecord(key, val)
	framed := make([]byte, 0, binary.MaxVarintLen64+len(rec))
	framed = binary.AppendUvarint(framed, uint64(len(rec)))
	framed = append(framed, rec...)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil || s.size+int64(len(framed)) > s.budget {
		s.stats.Rejected++
		return
	}
	if _, err := s.f.WriteAt(framed, s.size); err != nil {
		s.stats.Rejected++
		s.f.Truncate(s.size) // keep the tail clean for the next append
		return
	}
	if err := s.f.Sync(); err != nil {
		s.stats.Rejected++
		s.f.Truncate(s.size)
		return
	}
	off := s.size + int64(len(framed)) - int64(len(rec))
	if old, ok := s.index[key]; ok {
		s.bytes -= old.len
	}
	s.index[key] = diskRef{off: off, n: int64(len(rec)), len: int64(len(val))}
	s.bytes += int64(len(val))
	s.size += int64(len(framed))
}

// Stats returns a snapshot of the retention counters. Bytes is the log
// size on disk (superseded records included — the honest cost), Entries the
// live keys.
func (s *DiskStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Bytes = s.size
	st.Budget = s.budget
	return st
}

// Close syncs and closes the log file.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
