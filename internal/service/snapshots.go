package service

import (
	"os"
	"path/filepath"

	"checkpointsim/internal/snapshot"
)

// snapshotStore persists the latest mid-run simulator snapshot of each
// scenario job, in one file per job keyed by the job's cache key. Files
// are written atomically (temp + rename), so a server killed at any moment
// — including mid-write — leaves either the previous snapshot or the new
// one on disk, never a truncated blob. A restarted server finding a blob
// under a job's key resumes that simulation from the persisted boundary
// instead of from t=0; the engine's config digest guards against resuming
// into a different configuration, and any restore failure falls back to a
// cold run (snapshot persistence is an optimization, never a correctness
// dependency).
type snapshotStore struct {
	dir string
}

func newSnapshotStore(dir string) *snapshotStore {
	os.MkdirAll(dir, 0o755) // best-effort here; save retries and reports
	return &snapshotStore{dir: dir}
}

func (st *snapshotStore) path(key string) string {
	return filepath.Join(st.dir, key+".ckpt")
}

// load returns the persisted snapshot for key, or nil if there is none. A
// read error is treated as "none": the job simply runs cold.
func (st *snapshotStore) load(key string) []byte {
	b, err := os.ReadFile(st.path(key))
	if err != nil {
		return nil
	}
	return b
}

// save atomically replaces the persisted snapshot for key.
func (st *snapshotStore) save(key string, blob []byte) error {
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	return snapshot.WriteFile(st.path(key), blob)
}

// drop removes the persisted snapshot for key: once the job completes, its
// result lives in the cache and the snapshot is dead weight.
func (st *snapshotStore) drop(key string) { os.Remove(st.path(key)) }
