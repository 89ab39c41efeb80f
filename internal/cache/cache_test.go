package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func compute(val string) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) { return []byte(val), nil }
}

func mustGet(t *testing.T, c *Cache, key string, fn func(context.Context) ([]byte, error)) ([]byte, Source) {
	t.Helper()
	val, src, err := c.GetOrCompute(context.Background(), key, fn)
	if err != nil {
		t.Fatalf("GetOrCompute(%q): %v", key, err)
	}
	return val, src
}

func TestHitAfterCompute(t *testing.T) {
	c := New(1 << 20)
	val, src := mustGet(t, c, "k", compute("v"))
	if src != Computed || string(val) != "v" {
		t.Fatalf("first call: %q via %v, want computed v", val, src)
	}
	val, src = mustGet(t, c, "k", func(context.Context) ([]byte, error) {
		t.Fatal("fn ran on a cached key")
		return nil, nil
	})
	if src != Hit || string(val) != "v" {
		t.Fatalf("second call: %q via %v, want hit v", val, src)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry / 1 byte", s)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	var calls atomic.Int32
	fail := func(context.Context) ([]byte, error) { calls.Add(1); return nil, boom }
	if _, _, err := c.GetOrCompute(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.GetOrCompute(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("retry err = %v, want boom (errors must not be cached)", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("fn ran %d times, want 2", got)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("failed compute left %d entries resident", s.Entries)
	}
}

// LRU order: filling past the budget evicts the coldest key, and a Get
// refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	c := New(3) // three 1-byte entries
	mustGet(t, c, "a", compute("1"))
	mustGet(t, c, "b", compute("2"))
	mustGet(t, c, "c", compute("3"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before overflow")
	}
	// Recency now a > c > b; inserting d must evict b.
	mustGet(t, c, "d", compute("4"))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order ignored the Get refresh")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want resident", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Bytes != 3 {
		t.Errorf("stats = %+v, want 1 eviction, 3 bytes", s)
	}
}

// Zero budget: every request computes, nothing is retained, and the cache
// still deduplicates concurrent identical computes.
func TestZeroBudget(t *testing.T) {
	c := New(0)
	var calls atomic.Int32
	fn := func(context.Context) ([]byte, error) { calls.Add(1); return []byte("v"), nil }
	for i := 0; i < 3; i++ {
		val, src := mustGet(t, c, "k", fn)
		if src != Computed || string(val) != "v" {
			t.Fatalf("call %d: %q via %v, want computed", i, val, src)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("fn ran %d times, want 3 (zero budget retains nothing)", got)
	}
	s := c.Stats()
	if s.Entries != 0 || s.Bytes != 0 || s.Rejected != 3 {
		t.Errorf("stats = %+v, want empty cache with 3 rejections", s)
	}
	if s.Evictions != 0 {
		t.Errorf("zero budget evicted %d entries; oversized values must be rejected, not churn the LRU", s.Evictions)
	}
}

// A single value larger than the whole budget is rejected without
// disturbing resident entries.
func TestOversizedEntryRejected(t *testing.T) {
	c := New(8)
	mustGet(t, c, "small", compute("1234"))
	val, src := mustGet(t, c, "big", compute(strings.Repeat("x", 9)))
	if src != Computed || len(val) != 9 {
		t.Fatalf("oversized compute: %d bytes via %v", len(val), src)
	}
	if _, ok := c.Get("big"); ok {
		t.Error("oversized value admitted past the budget")
	}
	if _, ok := c.Get("small"); !ok {
		t.Error("resident entry evicted by a rejected oversized value")
	}
	if s := c.Stats(); s.Rejected != 1 || s.Evictions != 0 {
		t.Errorf("stats = %+v, want 1 rejection, 0 evictions", s)
	}
}

// An entry exactly at the budget is admitted and alone.
func TestExactBudgetFit(t *testing.T) {
	c := New(4)
	mustGet(t, c, "a", compute("12"))
	mustGet(t, c, "b", compute("1234"))
	if _, ok := c.Get("b"); !ok {
		t.Error("exact-budget entry rejected")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("smaller entry survived; budget requires it evicted")
	}
	if s := c.Stats(); s.Bytes != 4 || s.Entries != 1 {
		t.Errorf("stats = %+v, want exactly the 4-byte entry", s)
	}
}

// Concurrent identical requests compute once; everyone sees the same bytes.
func TestSingleflightDedup(t *testing.T) {
	c := New(1 << 20)
	const n = 32
	var calls atomic.Int32
	started := make(chan struct{})
	fn := func(context.Context) ([]byte, error) {
		calls.Add(1)
		<-started // hold the leader until all followers are queued
		return []byte("once"), nil
	}
	var wg sync.WaitGroup
	launched := make(chan struct{}, n)
	results := make([][]byte, n)
	sources := make([]Source, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			launched <- struct{}{}
			val, src, err := c.GetOrCompute(context.Background(), "k", fn)
			if err != nil {
				t.Error(err)
				return
			}
			results[i], sources[i] = val, src
		}(i)
	}
	for i := 0; i < n; i++ {
		<-launched
	}
	time.Sleep(10 * time.Millisecond) // let goroutines reach the singleflight gate
	close(started)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times under %d concurrent identical requests, want 1", got, n)
	}
	var computed, shared, hits int
	for i := 0; i < n; i++ {
		if !bytes.Equal(results[i], []byte("once")) {
			t.Fatalf("caller %d saw %q", i, results[i])
		}
		switch sources[i] {
		case Computed:
			computed++
		case Shared:
			shared++
		case Hit:
			hits++
		}
	}
	if computed != 1 {
		t.Errorf("%d leaders, want exactly 1 (shared=%d hits=%d)", computed, shared, hits)
	}
}

// A follower whose context dies while waiting unblocks with ctx.Err();
// the leader's computation is unaffected and still lands in the cache.
func TestFollowerContextCancellation(t *testing.T) {
	c := New(1 << 20)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		close(leaderIn)
		<-release
		return []byte("v"), nil
	})
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	_, _, err := c.GetOrCompute(ctx, "k", compute("never"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := c.Get("k"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader result never landed after follower cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

// A panicking computation releases its key: a follower already waiting on
// it gets an error instead of a nil value, the panic reaches the leader's
// caller, nothing is stored, and the next request on the key computes
// afresh instead of joining the dead call until its context expires.
func TestPanickingComputeReleasesKey(t *testing.T) {
	c := New(1 << 20)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			close(leaderIn)
			<-release
			panic("boom")
		})
	}()
	<-leaderIn
	followerErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _, err := c.GetOrCompute(ctx, "k", compute("never"))
		followerErr <- err
	}()
	for c.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("leader recovered %v, want the original panic", p)
	}
	if err := <-followerErr; err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower of a panicking leader: err = %v, want a panic error", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("panicking computation left a value in the store")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	val, src, err := c.GetOrCompute(ctx, "k", compute("fresh"))
	if err != nil || src != Computed || string(val) != "fresh" {
		t.Fatalf("after panic: val=%q src=%v err=%v, want a fresh compute", val, src, err)
	}
}

// Hammer the cache from many goroutines across overlapping keys under a
// tight budget — the race detector's playground.
func TestConcurrentChurn(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				val, _, err := c.GetOrCompute(context.Background(), k, compute(strings.Repeat("x", (g+i)%16+1)))
				if err != nil {
					t.Error(err)
					return
				}
				_ = val
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes > 64 {
		t.Errorf("resident bytes %d exceed budget 64", s.Bytes)
	}
	if s.Bytes < 0 || s.Entries < 0 {
		t.Errorf("negative accounting: %+v", s)
	}
}

func TestSourceString(t *testing.T) {
	for src, want := range map[Source]string{Computed: "computed", Hit: "hit", Shared: "shared", Source(99): "unknown"} {
		if got := src.String(); got != want {
			t.Errorf("Source(%d).String() = %q, want %q", src, got, want)
		}
	}
}
