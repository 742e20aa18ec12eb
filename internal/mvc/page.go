package mvc

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/obs"
)

// PageService is the single generic page service of Figure 5 applied to
// pages: where a conventional implementation needs one page service
// class per page (556 for Acer-Euro), this one service interprets the
// page descriptor, which "describes the topology of the page units and
// links, which is needed for computing units in the proper order and
// with the correct input parameters" (Section 4).
type PageService struct {
	Repo     *descriptor.Repository
	Business Business
	// Workers bounds the per-request worker pool of a business tier
	// that does not batch: units of the same topological level compute
	// concurrently on up to Workers goroutines. <=1 computes them inline,
	// one after another (the default). A batching tier takes each level
	// as one ComputeUnits call instead.
	Workers int
	// PageLat / UnitLat, when set, record per-page and per-unit compute
	// latency into the shared histogram families — the model-derived
	// series behind the /metrics p50/p95/p99. Nil skips recording.
	PageLat *obs.HistogramVec
	UnitLat *obs.HistogramVec
}

// PageState is the set of unit beans computed for one request — the
// Model's state objects handed to the View.
type PageState struct {
	PageID string
	Beans  map[string]*UnitBean
	// Order lists unit IDs in page display order.
	Order []string
}

// ComputePage exposes the single computePage() function of the paper's
// page service: it computes the page's units level by level along the
// transport-link edges — every unit whose inputs are already resolved
// may run concurrently with its level peers — propagating parameters
// and invoking the unit services.
//
// request carries the typed HTTP parameters; formState (may be nil)
// carries sticky entry-unit values and validation errors keyed by entry
// unit ID. ctx carries the request deadline: levels stop scheduling new
// units once it is done, and the business tier below observes it.
func (ps *PageService) ComputePage(ctx context.Context, pageID string, request map[string]Value, formState map[string]*FormState) (*PageState, error) {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "page.compute")
	sp.Label("page", pageID)
	state, err := ps.computePage(ctx, pageID, request, formState)
	if ps.PageLat != nil {
		ps.PageLat.ObserveErr(pageID, time.Since(start), err != nil)
	}
	sp.EndErr(err)
	return state, err
}

func (ps *PageService) computePage(ctx context.Context, pageID string, request map[string]Value, formState map[string]*FormState) (*PageState, error) {
	pd := ps.Repo.Page(pageID)
	if pd == nil {
		return nil, fmt.Errorf("mvc: no page descriptor %q", pageID)
	}
	sched, err := ps.Repo.Schedule(pageID)
	if err != nil {
		return nil, err
	}
	state := &PageState{
		PageID: pageID,
		Beans:  make(map[string]*UnitBean, len(pd.Units)),
		Order:  make([]string, len(pd.Units)),
	}
	for i, ur := range pd.Units {
		state.Order[i] = ur.ID
	}

	batch := SupportsUnitBatch(ps.Business)
	for li, level := range sched.Levels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lctx, lsp := obs.StartSpan(ctx, "page.level")
		lsp.Label("level", strconv.Itoa(li)).Label("units", strconv.Itoa(len(level)))
		if batch {
			lsp.Label("batch", "1")
		}
		if err := ps.computeLevel(lctx, batch, pd, sched, level, request, formState, state); err != nil {
			lsp.EndErr(err)
			return nil, err
		}
		lsp.End()
	}
	return state, nil
}

// errNotRun marks a pool unit that was never dispatched because a level
// peer had already failed or the deadline had passed. It records no
// latency and never becomes the level's error: a peer's error earlier in
// level order, or the context error, always precedes it.
var errNotRun = errors.New("mvc: unit not run: its level had already failed")

// computeLevel computes one topological level. Every unit's inputs are
// resolved up front (they only read beans of strictly earlier levels),
// then the level is dispatched once: when batch (SupportsUnitBatch of
// the business tier) holds, as one ComputeUnits call — one round trip
// per level on a remote tier, even for a one-unit level — otherwise as
// guarded per-unit ComputeUnit calls on the worker pool. Results merge the same way on both sides: the
// first error in level order wins, beans merge deterministically, and
// sticky form-state errors are cloned onto the bean copy-on-write. Each
// unit gets its own "unit" span and UnitLat observation — its own call
// time in the pool, the batch wall time in a batch (units of a batched
// level finish together from the scheduler's point of view).
func (ps *PageService) computeLevel(ctx context.Context, batch bool, pd *descriptor.Page, sched *descriptor.Schedule, level []string, request map[string]Value, formState map[string]*FormState, state *PageState) error {
	calls := make([]UnitCall, len(level))
	for i, unitID := range level {
		ud, inputs, err := ps.resolveInputs(pd, sched, unitID, request, formState, state)
		if err != nil {
			return err
		}
		calls[i] = UnitCall{D: ud, Inputs: inputs}
	}
	spans := make([]*obs.SpanHandle, len(level))
	for i, unitID := range level {
		spans[i] = obs.Leaf(ctx, "unit").Label("unit", unitID).Label("entity", calls[i].D.Entity)
	}
	var res []UnitResult
	lat := make([]time.Duration, len(level))
	if batch {
		start := time.Now()
		res = ComputeUnitsOf(ctx, ps.Business, calls)
		elapsed := time.Since(start)
		for i := range lat {
			lat[i] = elapsed
		}
	} else {
		res = ps.computeEach(ctx, calls, lat)
	}
	var firstErr error
	for i, unitID := range level {
		err := res[i].Err
		spans[i].EndErr(err)
		if errors.Is(err, errNotRun) {
			continue
		}
		if ps.UnitLat != nil {
			ps.UnitLat.ObserveErr(unitID, lat[i], err != nil)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, unitID := range level {
		bean := res[i].Bean
		if bean == nil {
			continue
		}
		if fs := formState[unitID]; fs != nil && len(fs.Errors) > 0 {
			// Copy-on-write: the bean may come from the shared cache, and
			// validation errors belong to this request only.
			clone := *bean
			clone.Errors = fs.Errors
			bean = &clone
		}
		state.Beans[unitID] = bean
	}
	return nil
}

// computeEach runs a level's units as guarded ComputeUnit calls on up to
// Workers goroutines, the calling one included (inline when Workers<=1
// or the level has one unit), recording each unit's own call time into
// lat. Units are claimed in level order; once a unit fails or the
// deadline passes no more are claimed, and the unclaimed rest of the
// level is marked errNotRun.
func (ps *PageService) computeEach(ctx context.Context, calls []UnitCall, lat []time.Duration) []UnitResult {
	res := make([]UnitResult, len(calls))
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(calls) {
				return
			}
			start := time.Now()
			res[i].Bean, res[i].Err = computeOneGuarded(ctx, ps.Business, calls[i])
			lat[i] = time.Since(start)
			if res[i].Err != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(ps.Workers, len(calls)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i := int(next.Load()); i < len(calls); i++ {
		res[i].Err = errNotRun
	}
	return res
}

// resolveInputs binds one unit's inputs — request parameters by name,
// intra-page transport edges ("parameters are passed from one query to
// another one", Section 4), then sticky form state for entry units — and
// returns its descriptor. It only reads beans of strictly earlier levels
// from state.
func (ps *PageService) resolveInputs(pd *descriptor.Page, sched *descriptor.Schedule, unitID string, request map[string]Value, formState map[string]*FormState, state *PageState) (*descriptor.Unit, map[string]Value, error) {
	ud := ps.Repo.Unit(unitID)
	if ud == nil {
		return nil, nil, fmt.Errorf("mvc: page %q references missing unit descriptor %q", pd.ID, unitID)
	}
	inputs := make(map[string]Value)
	for _, p := range ud.Inputs {
		if v, ok := request[p.Name]; ok {
			inputs[p.Name] = v
		}
	}
	for _, e := range sched.Incoming[unitID] {
		src := state.Beans[e.From]
		if src == nil || src.Missing || len(src.Nodes) == 0 {
			continue
		}
		current := src.Nodes[0].Values
		for _, pm := range e.Params {
			if v, ok := current[pm.Source]; ok {
				inputs[pm.Target] = v
			}
		}
	}
	if fs := formState[unitID]; fs != nil {
		for k, v := range fs.Values {
			inputs[k] = v
		}
	}
	return ud, inputs, nil
}

// FormState carries an entry unit's sticky values and validation errors
// across the KO redirect.
type FormState struct {
	Values map[string]Value
	Errors map[string]string
}

// topoOrder returns the page's unit IDs in an order where every edge
// source precedes its target; units not involved in edges keep their
// display order. It delegates to the descriptor-level schedule.
func topoOrder(pd *descriptor.Page) ([]string, error) {
	s, err := descriptor.ComputeSchedule(pd)
	if err != nil {
		return nil, err
	}
	return s.Order, nil
}
