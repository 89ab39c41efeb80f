package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/runner"
)

// JobState is the lifecycle of a submitted sweep.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: on a worker (or waiting on an identical in-flight
	// computation via singleflight).
	StateRunning JobState = "running"
	// StateDone: finished; result bytes are available.
	StateDone JobState = "done"
	// StateFailed: the run errored (including cancellation and timeout).
	StateFailed JobState = "failed"
	// StateRejected: dequeued during drain; never ran.
	StateRejected JobState = "rejected"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateRejected
}

// Job is one submitted sweep request moving through the queue. Mutable
// fields are guarded by mu; done closes exactly once, when the job reaches
// a terminal state.
type Job struct {
	ID  string
	Req SweepRequest

	mu       sync.Mutex
	state    JobState
	err      error
	source   cache.Source
	result   []byte
	created  time.Time
	started  time.Time
	finished time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

func newJob(id string, req SweepRequest, ctx context.Context, cancel context.CancelFunc) *Job {
	return &Job{
		ID:      id,
		Req:     req,
		state:   StateQueued,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish records the outcome and releases waiters. Idempotence is not
// needed — exactly one worker owns a job — but the terminal guard keeps a
// late double-call from panicking on the closed channel.
func (j *Job) finish(state JobState, result []byte, src cache.Source, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	j.source = src
	j.err = err
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel()
	close(j.done)
}

// errRunPanicked marks a job whose run panicked. A panic is a property of
// the request, not of the worker, so such a failure is not retryable.
var errRunPanicked = errors.New("run panicked")

// retryableHeader, set to "false" on a failed run's response, tells a
// coordinator that re-dispatching the request cannot succeed.
const retryableHeader = "X-Sweepd-Retryable"

// panicked reports whether the job failed because its run panicked, in the
// job's own goroutine or in one of its sweep points.
func (j *Job) panicked() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return errors.Is(j.err, errRunPanicked) || errors.Is(j.err, runner.ErrPanicked)
}

// snapshot returns a consistent view for status rendering.
func (j *Job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.ID,
		Exp:     j.Req.Exp,
		State:   j.state,
		Created: j.created.UTC(),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state.terminal() {
		st.Cached = j.source == cache.Hit || j.source == cache.Shared
		st.Source = j.source.String()
	}
	switch {
	case !j.finished.IsZero() && !j.started.IsZero():
		st.ElapsedMs = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	case !j.started.IsZero():
		st.ElapsedMs = float64(time.Since(j.started)) / float64(time.Millisecond)
	}
	return st
}

// resultBytes returns the stored result for a done job.
func (j *Job) resultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID    string   `json:"id"`
	Exp   string   `json:"exp"`
	State JobState `json:"state"`
	// Cached is true when the result came from the cache (hit) or from an
	// identical concurrent computation (shared) rather than a fresh run.
	Cached bool `json:"cached"`
	// Source refines Cached: "computed", "hit", or "shared" (terminal
	// states only).
	Source string `json:"source,omitempty"`
	// ElapsedMs is the server-side execution time: running → so far,
	// terminal → total. Queue wait is excluded, so a cache hit reports the
	// lookup cost, not the queue's mood.
	ElapsedMs float64   `json:"elapsed_ms"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created"`
}

// registry retains jobs for status lookups, pruning the oldest terminal
// jobs past a cap so a long-lived server does not grow without bound.
// (Result bytes usually live on in the cache; only job metadata is
// pruned.)
type registry struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // insertion order, for pruning
	cap   int
}

func newRegistry(cap int) *registry {
	if cap < 1 {
		cap = 1
	}
	return &registry{jobs: make(map[string]*Job), cap: cap}
}

func (r *registry) add(j *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	// Prune oldest *terminal* jobs over the cap; live jobs are never
	// dropped (their owners hold pointers, and status must stay visible).
	for len(r.jobs) > r.cap {
		pruned := false
		for i, id := range r.order {
			old, ok := r.jobs[id]
			if !ok {
				r.order = append(r.order[:i], r.order[i+1:]...)
				pruned = true
				break
			}
			old.mu.Lock()
			terminal := old.state.terminal()
			old.mu.Unlock()
			if terminal {
				delete(r.jobs, id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break // everything is live; allow temporary overshoot
		}
	}
}

func (r *registry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// list returns snapshots of all retained jobs, oldest first.
func (r *registry) list() []JobStatus {
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		if j, ok := r.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	r.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// errQueueFull maps to 429 + Retry-After.
var errQueueFull = fmt.Errorf("job queue full")

// errDraining maps to 503: the server is shutting down.
var errDraining = fmt.Errorf("server draining")
