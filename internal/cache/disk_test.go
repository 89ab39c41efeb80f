package cache

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openDisk(t *testing.T, dir string, budget int64) *DiskStore {
	t.Helper()
	st, err := NewDiskStore(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func logPath(dir string) string { return filepath.Join(dir, diskLogName) }

// Round trip through the record codec, including empty and binary values.
func TestDiskRecordRoundTrip(t *testing.T) {
	cases := []struct {
		key string
		val []byte
	}{
		{"k", []byte("value")},
		{"", nil},
		{"deadbeef", bytes.Repeat([]byte{0, 255, 7}, 100)},
	}
	for _, c := range cases {
		key, val, err := DecodeDiskRecord(EncodeDiskRecord(c.key, c.val))
		if err != nil {
			t.Fatalf("%q: %v", c.key, err)
		}
		if key != c.key || !bytes.Equal(val, c.val) {
			t.Errorf("round trip of %q mutated record: key %q, %d bytes", c.key, key, len(val))
		}
	}
}

// TestDiskRecordBytesPinned pins the sealed record layout, so cache.log
// files written by earlier builds stay readable: a change here needs a
// DiskRecordVersion bump.
func TestDiskRecordBytesPinned(t *testing.T) {
	const want = "434b534e4150310a01093366326139632f45310f7b22726f7773223a5b312c325d7d0a" +
		"62281be1415d16f0f32b42d2d7cfdf175379974aaafc53d3a7e4706e1bcd84f6"
	key, val := "3f2a9c/E1", []byte("{\"rows\":[1,2]}\n")
	rec := EncodeDiskRecord(key, val)
	if got := hex.EncodeToString(rec); got != want {
		t.Fatalf("record bytes changed:\n got %s\nwant %s", got, want)
	}
	if k, v, err := DecodeDiskRecord(rec); err != nil || k != key || !bytes.Equal(v, val) {
		t.Fatalf("pinned record decodes as %q, %q, %v", k, v, err)
	}
}

// Warm results survive a restart byte-identically: fill, close, reopen,
// read back. The newest record per key wins across the restart too.
func TestDiskStoreRestartByteIdentity(t *testing.T) {
	dir := t.TempDir()
	st := openDisk(t, dir, 1<<20)
	st.Put("a", []byte("first"))
	st.Put("b", []byte("other"))
	st.Put("a", []byte("second")) // supersedes "first" in the log
	if v, ok := st.Get("a"); !ok || string(v) != "second" {
		t.Fatalf("pre-restart Get(a) = %q, %v", v, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, dir, 1<<20)
	for key, want := range map[string]string{"a": "second", "b": "other"} {
		v, ok := re.Get(key)
		if !ok || string(v) != want {
			t.Errorf("post-restart Get(%s) = %q, %v; want %q", key, v, ok, want)
		}
	}
	ss := re.Stats()
	if ss.Entries != 2 {
		t.Errorf("post-restart entries = %d, want 2", ss.Entries)
	}
	if ss.DiskHits != 2 {
		t.Errorf("post-restart disk hits = %d, want 2", ss.DiskHits)
	}
	if ss.Corrupt != 0 {
		t.Errorf("clean restart counted %d corrupt records", ss.Corrupt)
	}
}

// The budget bounds the log: admissions past it are rejected, not erred,
// and a value alone larger than the budget never lands.
func TestDiskStoreBudget(t *testing.T) {
	dir := t.TempDir()
	st := openDisk(t, dir, 256)
	st.Put("big", bytes.Repeat([]byte("x"), 1024))
	if _, ok := st.Get("big"); ok {
		t.Error("oversized value admitted")
	}
	st.Put("fits", []byte("small"))
	if _, ok := st.Get("fits"); !ok {
		t.Error("small value rejected under budget")
	}
	for i := 0; ; i++ {
		before := st.Stats().Rejected
		st.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("y"), 64))
		if st.Stats().Rejected > before {
			break
		}
		if i > 100 {
			t.Fatal("budget never filled")
		}
	}
	if got := st.Stats().Bytes; got > 256 {
		t.Errorf("log grew to %d bytes past the 256 budget", got)
	}
}

// Corruption table: every truncation of the log and a sample of single-bit
// flips. A reopened store must never serve bytes that differ from what was
// stored — damaged suffixes degrade to misses (cold runs), intact prefixes
// stay warm and byte-identical.
func TestDiskStoreCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	st := openDisk(t, dir, 1<<20)
	want := map[string][]byte{}
	for i := 0; i < 4; i++ {
		key, val := fmt.Sprintf("key-%d", i), bytes.Repeat([]byte{byte(i + 1)}, 50+i)
		st.Put(key, val)
		want[key] = val
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, doctored []byte) {
		sub := t.TempDir()
		if err := os.WriteFile(logPath(sub), doctored, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := NewDiskStore(sub, 1<<20)
		if err != nil {
			t.Fatalf("doctored log failed open entirely: %v", err)
		}
		defer re.Close()
		for key, wantVal := range want {
			got, ok := re.Get(key)
			if ok && !bytes.Equal(got, wantVal) {
				t.Fatalf("served corrupt bytes for %s: %d bytes, want %d", key, len(got), len(wantVal))
			}
		}
	}

	t.Run("every-truncation", func(t *testing.T) {
		for n := 0; n < len(clean); n++ {
			check(t, clean[:n])
		}
	})
	t.Run("sampled-bit-flips", func(t *testing.T) {
		for off := 0; off < len(clean); off += 7 {
			for bit := 0; bit < 8; bit += 3 {
				doctored := append([]byte(nil), clean...)
				doctored[off] ^= 1 << bit
				check(t, doctored)
			}
		}
	})
}

// Rot after open is caught at read time: a record damaged under a running
// store's feet reports a miss and unindexes, never serves the bad bytes.
func TestDiskStoreReadTimeVerification(t *testing.T) {
	dir := t.TempDir()
	st := openDisk(t, dir, 1<<20)
	st.Put("k", bytes.Repeat([]byte("v"), 64))
	ref := st.index["k"]
	// Flip one bit in the middle of the sealed record, bypassing the store.
	f, err := os.OpenFile(logPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	pos := ref.off + ref.n/2
	if _, err := f.ReadAt(buf, pos); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x10
	if _, err := f.WriteAt(buf, pos); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if v, ok := st.Get("k"); ok {
		t.Fatalf("served rotted record: %d bytes", len(v))
	}
	if c := st.Stats().Corrupt; c != 1 {
		t.Errorf("corrupt counter = %d, want 1", c)
	}
	if _, ok := st.Get("k"); ok {
		t.Error("rotted key still resident after first rejection")
	}
}

// A torn tail (partial last append, the crash case) is truncated on replay
// so subsequent appends land on a clean boundary and survive the next
// restart.
func TestDiskStoreTornTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	st := openDisk(t, dir, 1<<20)
	st.Put("a", []byte("alpha"))
	st.Put("b", []byte("beta"))
	st.Close()
	clean, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath(dir), clean[:len(clean)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, dir, 1<<20)
	if _, ok := re.Get("b"); ok {
		t.Error("torn record served")
	}
	if _, ok := re.Get("a"); !ok {
		t.Error("intact prefix lost")
	}
	re.Put("c", []byte("gamma"))
	re.Close()

	again := openDisk(t, dir, 1<<20)
	for key, want := range map[string]string{"a": "alpha", "c": "gamma"} {
		if v, ok := again.Get(key); !ok || string(v) != want {
			t.Errorf("after torn-tail repair, Get(%s) = %q, %v; want %q", key, v, ok, want)
		}
	}
}

// The Cache front works identically over a DiskStore: compute once, hit
// after, and hit again from a fresh Cache over a reopened store — the
// restart path a warm sweepd worker takes.
func TestCacheOverDiskStore(t *testing.T) {
	dir := t.TempDir()
	c := NewWithStore(openDisk(t, dir, 1<<20))
	ctx := context.Background()
	computes := 0
	fn := func(context.Context) ([]byte, error) {
		computes++
		return []byte("payload"), nil
	}
	v, src, err := c.GetOrCompute(ctx, "k", fn)
	if err != nil || src != Computed || string(v) != "payload" {
		t.Fatalf("first call: %q, %v, %v", v, src, err)
	}
	v, src, err = c.GetOrCompute(ctx, "k", fn)
	if err != nil || src != Hit || string(v) != "payload" {
		t.Fatalf("second call: %q, %v, %v", v, src, err)
	}
	if computes != 1 {
		t.Fatalf("fn ran %d times, want 1", computes)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	warm := NewWithStore(openDisk(t, dir, 1<<20))
	v, src, err = warm.GetOrCompute(ctx, "k", fn)
	if err != nil || src != Hit || string(v) != "payload" {
		t.Fatalf("post-restart call: %q, %v, %v", v, src, err)
	}
	st := warm.Stats()
	if st.DiskHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Errorf("post-restart stats = %+v, want 1 disk hit, 1 hit, 0 misses", st)
	}
}
