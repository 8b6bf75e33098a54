package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/icescope"
)

// Engine executes a range of a scenario's cells somewhere other than the
// calling goroutine's worker pool — the distribution seam of the fleet.
// An engine receives the scenario by registry name plus the Params it was
// built with (a spec's closures cannot travel), rebuilds the identical
// spec wherever the cells actually run, and delivers each finished cell
// back. internal/icemesh's coordinator is the production implementation;
// the local pool is the degenerate one.
//
// Contract: deliver may be called from any goroutine, once per executed
// cell, with Result.Cell.Index set to the cell's global ensemble index.
// Because cell results are pure functions of (scenario, params, index),
// a merge by index reproduces the local result slice byte for byte no
// matter which node ran which cell — the determinism contract extended
// across processes.
type Engine interface {
	RunRange(ctx context.Context, scenario string, p Params, start, end int, deliver func(Result)) error
}

// runEngineSpec ships one Build-provenanced spec to the runner's engine
// and merges delivered cells by global index. Duplicate deliveries (a
// shard re-assigned after a presumed-dead node completed it anyway) are
// dropped — first result wins, and both copies are byte-identical by the
// determinism contract. Cells the engine never delivered are filled with
// the engine's error so the result slice stays complete.
func (r Runner) runEngineSpec(ctx context.Context, s Spec, out []Result, deliver func(Result)) error {
	// Trace the remote range and propagate the span over the context —
	// the only channel that crosses the Engine interface — so a
	// distributed coordinator can hang its plan/shard spans on this tree.
	sp := icescope.Span{}
	if r.Span.Active() {
		sp = r.Span.Child("engine " + s.Name)
		ctx = icescope.ContextWithSpan(ctx, sp)
	}
	var mu sync.Mutex
	seen := make([]bool, s.Cells)
	err := r.Engine.RunRange(ctx, s.scenario, s.params, 0, s.Cells, func(res Result) {
		mu.Lock()
		if res.Cell.Index < 0 || res.Cell.Index >= s.Cells || seen[res.Cell.Index] {
			mu.Unlock()
			return
		}
		seen[res.Cell.Index] = true
		out[res.Cell.Index] = res
		mu.Unlock()
		if deliver != nil {
			deliver(res)
		}
	})

	sp.End(icescope.IntAttr("cells", s.Cells))

	fillErr := err
	if fillErr == nil {
		fillErr = ctx.Err()
	}
	if fillErr == nil {
		fillErr = errors.New("fleet: engine did not deliver the cell")
	}
	var errs []error
	if err != nil {
		errs = append(errs, fmt.Errorf("%s: %w", s.Name, err))
	}
	missing := 0
	for i := range out {
		if !seen[i] {
			out[i] = Result{Cell: Cell{Index: i, Seed: s.seedFor(i)}, Err: fillErr}
			missing++
			continue
		}
		// Per-cell failures reported by remote nodes join the returned
		// error exactly as local cells' would.
		if out[i].Err != nil && !errors.Is(out[i].Err, ctx.Err()) {
			errs = append(errs, fmt.Errorf("%s cell %d: %w", s.Name, i, out[i].Err))
		}
	}
	if err == nil && missing > 0 && ctx.Err() == nil {
		errs = append(errs, fmt.Errorf("fleet: engine left %d of %d cells unexecuted", missing, s.Cells))
	}
	return errors.Join(errs...)
}
