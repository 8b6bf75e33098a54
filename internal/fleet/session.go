package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Session pins one built spec to a persistent worker pool: the one path
// for running a contiguous cell range, and the node-side primitive
// distributed engines are built from. Its workers are the same pool
// RunAllContext uses, kept alive across calls, so a fine-grained shard
// costs a cell dispatch rather than a pool start.
//
// Concurrent RunRange calls are safe and share the pool — cells from
// overlapping calls interleave across the same workers, bounding total
// parallelism at the session's worker count no matter how many ranges
// are in flight. Determinism is untouched: cells remain pure functions
// of their index, and each call's results are collected by index.
type Session struct {
	spec Spec
	pool *pool

	mu     sync.Mutex
	closed bool
	active int // RunRange calls in flight (idle tracking for cache evictors)
}

// NewSession validates the spec and starts the runner's worker pool
// against it. The caller must Close the session (with no RunRange in
// flight) to release the workers. Engine, if set on the runner, is
// ignored: a session is always local execution.
func (r Runner) NewSession(spec Spec) (*Session, error) {
	if spec.Run == nil {
		return nil, fmt.Errorf("fleet: spec %q has no Run", spec.Name)
	}
	return &Session{spec: spec, pool: r.startPool(max(r.Workers, 1))}, nil
}

// Spec returns the spec this session executes.
func (s *Session) Spec() Spec { return s.spec }

// Idle reports whether no RunRange call is in flight — the safe-to-Close
// signal for session caches.
func (s *Session) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active == 0
}

// RunRange executes cells [start, end) of the session's spec. Results
// carry their global ensemble index and seed, exactly as the same cells
// would in a full local run, so merging range results by index
// reproduces the local result slice byte for byte. onCell (when non-nil)
// is invoked serially per completed cell, cells not yet dispatched when
// ctx is cancelled are skipped with ctx.Err(), and the returned slice is
// in range order (position i holds cell start+i).
func (s *Session) RunRange(ctx context.Context, start, end int, onCell func(Result)) ([]Result, error) {
	if start < 0 || end < start || end > s.spec.Cells {
		return nil, fmt.Errorf("fleet: range [%d,%d) outside spec %q (%d cells)", start, end, s.spec.Name, s.spec.Cells)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: session for %q is closed", s.spec.Name)
	}
	s.active++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()

	b := &batch{spec: s.spec, start: start, out: make([]Result, end-start), deliver: serialize(onCell)}
	s.pool.dispatch(ctx, b)
	errs := b.wait(ctx)
	return b.out, errors.Join(append(errs, skippedErr(ctx, b.skipped))...)
}

// Close stops the worker pool and waits for the workers to exit. It must
// not race an in-flight RunRange (see Idle); calling Close twice is safe.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.pool.close()
}
