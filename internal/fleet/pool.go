package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// pool is the fleet's one local worker pool: RunAllContext starts one
// per call and a Session keeps one for its lifetime. Each worker
// goroutine owns one Scratch and one lock-free trace buffer and runs its
// cells on them serially, so pooling shares nothing between concurrent
// cells and cannot perturb determinism.
type pool struct {
	r    Runner
	jobs chan job
	wg   sync.WaitGroup
}

// job is one cell of a batch on its way to a worker.
type job struct {
	b   *batch
	ci  int
	enq time.Time // dispatch stamp; zero unless queue wait is observed
}

// batch is one caller's contiguous cell range of one spec. Position i of
// out holds cell start+i. deliver, when non-nil, is called once per
// executed cell and must be safe for concurrent use (see serialize).
type batch struct {
	spec    Spec
	start   int
	out     []Result
	deliver func(Result)
	done    sync.WaitGroup
	skipped int // cells not dispatched because ctx was cancelled
}

// startPool starts workers goroutines executing cells for r.
func (r Runner) startPool(workers int) *pool {
	p := &pool{r: r, jobs: make(chan job)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			scratch := &Scratch{}
			buf := r.Span.Trace().Buffer()
			for j := range p.jobs {
				r.observeWait(j.enq)
				res := r.runCell(j.b.spec, j.ci, scratch, buf)
				j.b.out[j.ci-j.b.start] = res
				if j.b.deliver != nil {
					j.b.deliver(res)
				}
				j.b.done.Done()
			}
		}()
	}
	return p
}

// close stops the workers once every dispatched cell has run.
func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// dispatch hands the batch's cells to the workers in index order. Once
// ctx is cancelled no further cell is dispatched: each remaining cell
// gets a Result carrying its seed (so partial result sets stay
// identifiable) and ctx.Err(). Cells already dispatched run to
// completion; a simulation cell is not interruptible mid-kernel.
func (p *pool) dispatch(ctx context.Context, b *batch) {
	for i := range b.out {
		ci := b.start + i
		if ctx.Err() == nil {
			b.done.Add(1)
			select {
			case p.jobs <- job{b, ci, p.r.stamp()}:
				continue
			case <-ctx.Done():
				b.done.Done()
			}
		}
		b.out[i] = Result{Cell: Cell{Index: ci, Seed: b.spec.seedFor(ci)}, Err: ctx.Err()}
		b.skipped++
	}
}

// wait blocks until every dispatched cell of the batch has finished and
// returns the cells' errors, cancellation excepted.
func (b *batch) wait(ctx context.Context) []error {
	b.done.Wait()
	var errs []error
	for _, res := range b.out {
		if res.Err != nil && !errors.Is(res.Err, ctx.Err()) {
			errs = append(errs, fmt.Errorf("%s cell %d: %w", b.spec.Name, res.Cell.Index, res.Err))
		}
	}
	return errs
}

// skippedErr reports n cancelled cells once, or nil when there are none.
func skippedErr(ctx context.Context, n int) error {
	if n == 0 {
		return nil
	}
	return fmt.Errorf("fleet: %d cells skipped: %w", n, ctx.Err())
}

// serialize wraps onCell so that concurrent workers never call it
// concurrently with itself. A nil onCell stays nil.
func serialize(onCell func(Result)) func(Result) {
	if onCell == nil {
		return nil
	}
	var mu sync.Mutex
	return func(res Result) {
		mu.Lock()
		defer mu.Unlock()
		onCell(res)
	}
}
