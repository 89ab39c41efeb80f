package cache

import (
	"context"
	"fmt"
	"sync"
)

// Source says how GetOrCompute satisfied a request.
type Source int

const (
	// Computed: this caller ran fn and (budget permitting) filled the cache.
	Computed Source = iota
	// Hit: the value was already cached.
	Hit
	// Shared: another caller was already computing the same key; this one
	// waited and received the same result without running fn.
	Shared
)

// String names the source for logs and metrics labels.
func (s Source) String() string {
	switch s {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	}
	return "unknown"
}

// Stats is a point-in-time snapshot of cache effectiveness counters,
// merging the singleflight front (hits/misses/shared) with the backing
// store's retention counters.
type Stats struct {
	Hits      int64 // GetOrCompute served from the store
	Misses    int64 // GetOrCompute ran fn (one per singleflight group)
	Shared    int64 // GetOrCompute waited on a concurrent identical compute
	Evictions int64 // entries dropped to fit the byte budget
	Rejected  int64 // values the store declined to admit
	Entries   int   // live entries
	Bytes     int64 // live payload bytes
	Budget    int64 // configured byte budget
	DiskHits  int64 // store Gets served by a digest-verified disk read
	Corrupt   int64 // disk records rejected by verification, never served
}

// Cache is a content-addressed byte cache with singleflight deduplication
// of concurrent computes, fronting a pluggable Store (in-memory LRU by
// default; append-only disk via NewDiskStore). The zero value is not
// usable; construct with New or NewWithStore. All methods are safe for
// concurrent use.
//
// Values are stored and returned by reference: callers must treat returned
// slices as immutable. The service layer only ever serializes them onto
// the wire, which keeps entries shareable across hits without copies.
type Cache struct {
	store Store

	mu     sync.Mutex
	calls  map[string]*call
	hits   int64
	misses int64
	shared int64
}

// call is one in-flight computation that any number of followers wait on.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// New creates a cache over an in-memory LRU store holding at most budget
// payload bytes (a non-positive budget admits nothing: every request
// computes, nothing is retained).
func New(budget int64) *Cache { return NewWithStore(NewMemStore(budget)) }

// NewWithStore creates a cache fronting the given backend.
func NewWithStore(store Store) *Cache {
	return &Cache{store: store, calls: make(map[string]*call)}
}

// Get returns the cached value for key, if resident. It never joins an
// in-flight compute.
func (c *Cache) Get(key string) ([]byte, bool) { return c.store.Get(key) }

// GetOrCompute returns the value for key, running fn at most once across
// all concurrent callers of the same key. A resident value is returned
// immediately (Hit). Otherwise the first caller becomes the leader and
// runs fn; concurrent callers for the same key block and share the
// leader's result (Shared) — success or error — without running fn.
// Successful results are offered to the store; errors are never cached, so
// a failed key recomputes on the next request.
//
// ctx cancels waiting, not computing: a follower whose ctx dies returns
// ctx.Err() while the leader's fn runs on. fn receives the leader's ctx
// unchanged — cancellation of the computation itself is fn's business
// (internal/exp threads it into the sweep worker pool).
func (c *Cache) GetOrCompute(ctx context.Context, key string, fn func(ctx context.Context) ([]byte, error)) ([]byte, Source, error) {
	c.mu.Lock()
	// The store lookup happens under c.mu so a leader between "fn done" and
	// "value admitted" cannot race a follower into a duplicate compute: the
	// leader admits to the store before releasing its call slot.
	if val, ok := c.store.Get(key); ok {
		c.hits++
		c.mu.Unlock()
		return val, Hit, nil
	}
	if cl, ok := c.calls[key]; ok {
		c.shared++
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.val, Shared, cl.err
		case <-ctx.Done():
			return nil, Shared, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	c.misses++
	c.mu.Unlock()

	// The release runs deferred so a panicking fn still frees the key: the
	// waiting followers get an error, nothing is stored, the next request
	// computes afresh, and the panic continues up the leader's stack.
	returned := false
	defer func() {
		if !returned {
			cl.val, cl.err = nil, fmt.Errorf("cache: computation for key %q panicked", key)
		}
		close(cl.done)
		c.mu.Lock()
		if cl.err == nil {
			c.store.Put(key, cl.val)
		}
		delete(c.calls, key)
		c.mu.Unlock()
	}()
	cl.val, cl.err = fn(ctx)
	returned = true
	return cl.val, Computed, cl.err
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := Stats{Hits: c.hits, Misses: c.misses, Shared: c.shared}
	c.mu.Unlock()
	ss := c.store.Stats()
	s.Evictions = ss.Evictions
	s.Rejected = ss.Rejected
	s.Entries = ss.Entries
	s.Bytes = ss.Bytes
	s.Budget = ss.Budget
	s.DiskHits = ss.DiskHits
	s.Corrupt = ss.Corrupt
	return s
}

// Close releases the backing store's resources.
func (c *Cache) Close() error { return c.store.Close() }
