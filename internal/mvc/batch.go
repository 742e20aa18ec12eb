package mvc

import (
	"context"
	"fmt"

	"webmlgo/internal/descriptor"
)

// UnitCall is one unit computation inside a level batch: the resolved
// descriptor plus its already-bound inputs.
type UnitCall struct {
	D      *descriptor.Unit
	Inputs map[string]Value
}

// UnitResult is the outcome of one batched unit computation.
type UnitResult struct {
	Bean *UnitBean
	Err  error
}

// BatchComputer is the batch interface of the business tier: the page
// scheduler submits all unit computations of one topological level in a
// single call, so a remote business tier turns N round trips per level
// into one batch frame. The decorators (bean cache, retries, chaos)
// implement their unit reads here only; their ComputeUnit is a one-item
// ComputeUnits.
//
// SupportsUnitBatch must report whether batching actually reaches a
// batching transport below — decorators delegate the answer to their
// inner business. When it reports false the scheduler computes the
// level's units concurrently on its worker pool, which is the right
// shape for in-process computation (no round trips to save, and a
// decorator's ComputeUnits would run its items one after another).
type BatchComputer interface {
	Business
	SupportsUnitBatch() bool
	ComputeUnits(ctx context.Context, calls []UnitCall) []UnitResult
}

// SupportsUnitBatch reports whether b both implements BatchComputer and
// affirms batch support — the question every decorator forwards down
// its chain.
func SupportsUnitBatch(b Business) bool {
	bc, ok := b.(BatchComputer)
	return ok && bc.SupportsUnitBatch()
}

// ComputeUnitsOf runs a level batch against b and never panics: through
// b's own ComputeUnits when it batches (a panic fails every item, and a
// short result set is padded so callers can index safely), otherwise as
// guarded per-item calls (a panic fails only its item). Decorators use
// it to pass a batch one layer down without caring whether that layer
// batches, and a panic below can never skip their bookkeeping.
func ComputeUnitsOf(ctx context.Context, b Business, calls []UnitCall) (out []UnitResult) {
	if !SupportsUnitBatch(b) {
		out = make([]UnitResult, len(calls))
		for i, c := range calls {
			out[i].Bean, out[i].Err = computeOneGuarded(ctx, b, c)
		}
		return out
	}
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("mvc: batch panicked: %v", r)
			out = make([]UnitResult, len(calls))
			for i := range out {
				out[i].Err = err
			}
		}
	}()
	out = b.(BatchComputer).ComputeUnits(ctx, calls)
	if n := len(out); n < len(calls) {
		err := fmt.Errorf("mvc: batch returned %d results for %d calls", n, len(calls))
		for len(out) < len(calls) {
			out = append(out, UnitResult{Err: err})
		}
	}
	return out
}

// computeOneGuarded is one contained unit call: a panicking service
// (user-supplied custom components run arbitrary code) surfaces as that
// unit's error instead of killing the process.
func computeOneGuarded(ctx context.Context, b Business, c UnitCall) (bean *UnitBean, err error) {
	defer func() {
		if r := recover(); r != nil {
			bean, err = nil, fmt.Errorf("mvc: unit %s panicked: %v", c.D.ID, r)
		}
	}()
	return b.ComputeUnit(ctx, c.D, c.Inputs)
}
