// Package runner provides a deterministic worker-pool executor for
// embarrassingly parallel sweeps. Map fans a slice of independent points
// across a bounded set of goroutines and returns the results in submission
// order, so callers observe output that is bit-for-bit identical regardless
// of worker count or scheduling. Determinism is the caller's half of the
// contract: each point must be self-contained (derive its RNG stream from
// the point index, share no mutable state with its siblings).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Map runs fn(i, points[i]) for every point on up to workers goroutines and
// returns the results indexed exactly like points. workers <= 0 selects
// runtime.GOMAXPROCS(0); a single worker reproduces strictly serial
// execution in index order.
//
// Error policy: the first error wins, where "first" means the lowest point
// index among failures — a deterministic choice even when several points
// fail on different workers. Once any point has failed, unstarted points
// are cancelled (workers stop draining the queue); points already in
// flight run to completion. A panic inside fn is recovered and surfaced as
// an error carrying the point index and stack, so one poisoned point
// cannot take down the whole sweep silently.
func Map[P, R any](workers int, points []P, fn func(i int, p P) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), workers, points, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is done, workers
// stop dequeuing new points and MapCtx returns ctx.Err(). Points already in
// flight run to completion (fn is never interrupted mid-point), so a
// cancelled sweep leaves no half-executed point behind — it simply returns
// before covering every index. Cancellation takes precedence over point
// errors in the return value; either way the partial results are discarded.
func MapCtx[P, R any](ctx context.Context, workers int, points []P, fn func(i int, p P) (R, error)) ([]R, error) {
	n := len(points)
	if n == 0 {
		return nil, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]R, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := runPoint(i, points[i], fn, &results[i]); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ErrPanicked marks the error of a point whose fn panicked (errors.Is).
var ErrPanicked = errors.New("panicked")

// runPoint executes one point, converting a panic into an error that names
// the point and wraps ErrPanicked.
func runPoint[P, R any](i int, p P, fn func(int, P) (R, error), out *R) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: point %d %w: %v\n%s", i, ErrPanicked, r, debug.Stack())
		}
	}()
	*out, err = fn(i, p)
	return err
}
