package mvc

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/obs"
	"webmlgo/internal/rdb"
)

// Business is the business tier of Figure 4: it computes unit content
// and executes operations. The local implementation runs inside the
// "servlet container"; internal/ejb provides a remote implementation
// living in the application server (Figure 6), and CachedBusiness wraps
// either with the Section 6 bean cache.
//
// Every call carries the request context: the controller derives a
// per-request deadline and each tier below (worker pool, bean cache,
// EJB client) observes it, so a hung container can never wedge a
// servlet worker past the request budget.
type Business interface {
	// ComputeUnit produces the unit bean for a descriptor and inputs.
	ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error)
	// ExecuteOperation runs an operation and reports OK/KO.
	ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error)
}

// LocalBusiness executes services in-process against the database.
type LocalBusiness struct {
	DB *rdb.DB
	// Units maps unit kind -> generic service.
	Units map[string]UnitService
	// Operations maps operation kind -> generic service.
	Operations map[string]OperationService
	// Custom maps component names (descriptor Service attribute) to
	// user-supplied services that override the generic ones (Section 6:
	// "this component can be completely overridden by a user-supplied
	// one, which may implement any required optimization policy").
	Custom map[string]UnitService
	// CustomOps is the operation counterpart of Custom.
	CustomOps map[string]OperationService
}

// NewLocalBusiness wires the core generic services over db.
func NewLocalBusiness(db *rdb.DB) *LocalBusiness {
	return &LocalBusiness{
		DB:         db,
		Units:      CoreUnitServices(),
		Operations: CoreOperationServices(),
		Custom:     map[string]UnitService{},
		CustomOps:  map[string]OperationService{},
	}
}

// RegisterUnitService installs (or replaces) the generic service for a
// unit kind — how plug-in units attach their runtime component.
func (b *LocalBusiness) RegisterUnitService(kind string, s UnitService) {
	b.Units[kind] = s
}

// RegisterOperationService installs the generic service for an operation
// kind.
func (b *LocalBusiness) RegisterOperationService(kind string, s OperationService) {
	b.Operations[kind] = s
}

// RegisterCustomComponent installs a named user-supplied unit service
// referenced by descriptor Service attributes.
func (b *LocalBusiness) RegisterCustomComponent(name string, s UnitService) {
	b.Custom[name] = s
}

// RegisterCustomOperation installs a named user-supplied operation
// service.
func (b *LocalBusiness) RegisterCustomOperation(name string, s OperationService) {
	b.CustomOps[name] = s
}

// ComputeUnit implements Business. Unit services run against the
// in-process database and do not block, so the context is only checked
// at entry: a request past its deadline stops before touching the DB.
func (b *LocalBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.Service != "" {
		if s, ok := b.Custom[d.Service]; ok {
			return s.Compute(ctx, b.DB, d, inputs)
		}
		return nil, fmt.Errorf("mvc: unit %s names unknown custom component %q", d.ID, d.Service)
	}
	s, ok := b.Units[d.Kind]
	if !ok {
		return nil, fmt.Errorf("mvc: no generic service for unit kind %q", d.Kind)
	}
	return s.Compute(ctx, b.DB, d, inputs)
}

// ExecuteOperation implements Business.
func (b *LocalBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.Service != "" {
		if s, ok := b.CustomOps[d.Service]; ok {
			return s.Execute(ctx, b.DB, d, inputs)
		}
		return nil, fmt.Errorf("mvc: operation %s names unknown custom component %q", d.ID, d.Service)
	}
	s, ok := b.Operations[d.Kind]
	if !ok {
		return nil, fmt.Errorf("mvc: no generic service for operation kind %q", d.Kind)
	}
	return s.Execute(ctx, b.DB, d, inputs)
}

// CachedBusiness decorates a Business with the bean cache: unit beans of
// cache-tagged descriptors are reused across requests, and operations
// automatically invalidate the beans whose Reads intersect their Writes.
// Concurrent misses of the same key are coalesced so exactly one
// computation hits the database.
type CachedBusiness struct {
	Inner Business
	Cache *cache.BeanCache

	// MaxStaleness bounds degraded-mode serving: when the inner business
	// fails (container down, deadline expired), a TTL-expired bean no
	// older than this may still be served instead of an error page —
	// Section 6's cache acting as the last line of defence, mirroring the
	// edge tier's stale-while-revalidate at the bean level. Invalidation
	// removes beans outright, so degraded mode can only serve data aged
	// past its TTL, never data written over by an operation. Zero
	// disables degraded serving.
	MaxStaleness time.Duration

	flights flightGroup
}

// NewCachedBusiness wraps inner with the bean cache.
func NewCachedBusiness(inner Business, c *cache.BeanCache) *CachedBusiness {
	return &CachedBusiness{Inner: inner, Cache: c}
}

// ComputeUnit implements Business as a one-item ComputeUnits.
func (cb *CachedBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	r := cb.ComputeUnits(ctx, []UnitCall{{D: d, Inputs: inputs}})[0]
	return r.Bean, r.Err
}

// SupportsUnitBatch implements BatchComputer by delegation.
func (cb *CachedBusiness) SupportsUnitBatch() bool { return SupportsUnitBatch(cb.Inner) }

// ComputeUnits implements BatchComputer with bean caching and
// singleflight coalescing: hits are answered locally; of K requests
// missing the same key concurrently, one (the leader) computes and the
// other K-1 wait for its result. Only this request's leader misses (plus
// uncached units) travel down, as one smaller batch. The invalidation
// version of each leader's read dependencies is snapshotted before
// computing; PutIfFresh refuses the bean if an operation invalidated any
// of them in the meantime, so a stale bean is never cached. The inner
// batch goes through ComputeUnitsOf, which contains panics, so every
// flight this request leads is finished.
func (cb *CachedBusiness) ComputeUnits(ctx context.Context, calls []UnitCall) []UnitResult {
	out := make([]UnitResult, len(calls))
	// leader describes one inner-batch slot: the call index it resolves,
	// and — for cached units — the flight this request leads plus the
	// pre-compute invalidation version snapshot.
	type leader struct {
		idx int
		key string
		f   *flight
		ver uint64
		d   *descriptor.Unit
	}
	type joiner struct {
		idx  int
		key  string
		unit string
		f    *flight
	}
	var inner []UnitCall
	var leaders []leader
	var joins []joiner
	for i, c := range calls {
		if c.D.Cache == nil || !c.D.Cache.Enabled {
			inner = append(inner, c)
			leaders = append(leaders, leader{idx: i})
			continue
		}
		key := beanKey(c.D.ID, c.Inputs)
		gsp := obs.Leaf(ctx, "cache.get").Label("unit", c.D.ID)
		if v, ok := cb.Cache.Get(key); ok {
			gsp.Label("outcome", "hit").End()
			out[i] = UnitResult{Bean: v.(*UnitBean)}
			continue
		}
		gsp.Label("outcome", "miss").End()
		f, lead := cb.flights.join(key, c.D.Reads)
		if !lead {
			joins = append(joins, joiner{idx: i, key: key, unit: c.D.ID, f: f})
			continue
		}
		inner = append(inner, c)
		leaders = append(leaders, leader{idx: i, key: key, f: f, ver: cb.Cache.Version(c.D.Reads), d: c.D})
	}
	if len(inner) > 0 {
		res := ComputeUnitsOf(ctx, cb.Inner, inner)
		for j, li := range leaders {
			bean, err := res[j].Bean, res[j].Err
			if li.f == nil {
				// Uncached pass-through: no flight, no cache store.
				out[li.idx] = res[j]
				continue
			}
			current := cb.flights.finish(li.key, li.f, bean, err)
			if err != nil {
				out[li.idx].Bean, out[li.idx].Err = cb.degraded(li.key, err)
				continue
			}
			if current {
				ttl := time.Duration(0)
				if li.d.Cache.TTLSeconds > 0 {
					ttl = time.Duration(li.d.Cache.TTLSeconds) * time.Second
				}
				psp := obs.Leaf(ctx, "cache.put").Label("unit", li.d.ID)
				stored := cb.Cache.PutIfFresh(li.key, bean, li.d.Reads, ttl, li.ver)
				psp.Label("stored", strconv.FormatBool(stored)).End()
			}
			out[li.idx] = UnitResult{Bean: bean}
		}
	}
	// Joined flights resolve after the inner batch: a same-batch leader
	// (same key twice in one level) has finished by now, and flights led
	// by other requests were already computing concurrently.
	for _, jn := range joins {
		wsp := obs.Leaf(ctx, "cache.wait").Label("unit", jn.unit)
		select {
		case <-jn.f.done:
			wsp.End()
		case <-ctx.Done():
			// Don't wait past this request's budget for someone else's
			// leader; a stale bean within bound still beats an error.
			wsp.EndErr(ctx.Err())
			out[jn.idx].Bean, out[jn.idx].Err = cb.degraded(jn.key, ctx.Err())
			continue
		}
		if jn.f.err != nil {
			out[jn.idx].Bean, out[jn.idx].Err = cb.degraded(jn.key, jn.f.err)
			continue
		}
		out[jn.idx] = UnitResult{Bean: jn.f.bean}
	}
	return out
}

// degraded is the fallback path of a failed cached computation: if
// degraded serving is enabled and a bean no older than MaxStaleness is
// still retained (TTL-expired beans are kept, invalidated ones are not),
// serve it and swallow the failure; otherwise surface the original error.
func (cb *CachedBusiness) degraded(key string, err error) (*UnitBean, error) {
	if cb.MaxStaleness > 0 {
		if v, _, ok := cb.Cache.GetStale(key, cb.MaxStaleness); ok {
			return v.(*UnitBean), nil
		}
	}
	return nil, err
}

// ExecuteOperation implements Business, invalidating dependent beans on
// success — "the implementation of operations automatically invalidates
// the affected cached objects" (Section 6). In-flight computations
// reading the written tags are forgotten first, so requests arriving
// after the write never join a pre-write flight; PutIfFresh's version
// check then keeps any still-finishing leader from caching its result.
// Operations are never retried and never degrade: a write either
// happened or its error surfaces.
func (cb *CachedBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	res, err := cb.Inner.ExecuteOperation(ctx, d, inputs)
	if err != nil {
		return nil, err
	}
	if res.OK && len(d.Writes) > 0 {
		cb.flights.forget(d.Writes...)
		cb.Cache.Invalidate(d.Writes...)
	}
	return res, nil
}

// NotifyingBusiness decorates a Business with a write-event bus: after
// every successful operation it publishes the operation's written
// dependency tags. The edge tier subscribes to extend Section 6's
// model-driven invalidation beyond the bean cache — one write event
// purges the dependency closure at every cache level.
type NotifyingBusiness struct {
	Inner Business
	// OnWrite receives the Writes tags of each successful operation.
	OnWrite func(tags []string)
}

// ComputeUnit implements Business by delegation.
func (nb *NotifyingBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	return nb.Inner.ComputeUnit(ctx, d, inputs)
}

// SupportsUnitBatch implements BatchComputer by delegation.
func (nb *NotifyingBusiness) SupportsUnitBatch() bool { return SupportsUnitBatch(nb.Inner) }

// ComputeUnits implements BatchComputer by pure delegation — unit reads
// never write, so there is nothing to notify.
func (nb *NotifyingBusiness) ComputeUnits(ctx context.Context, calls []UnitCall) []UnitResult {
	return ComputeUnitsOf(ctx, nb.Inner, calls)
}

// ExecuteOperation implements Business, publishing the written tags on
// success. The inner business (CachedBusiness) has already invalidated
// its own level when the event fires, so subscribers refilling from the
// origin observe post-write state.
func (nb *NotifyingBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	res, err := nb.Inner.ExecuteOperation(ctx, d, inputs)
	if err != nil {
		return nil, err
	}
	if res.OK && len(d.Writes) > 0 && nb.OnWrite != nil {
		nb.OnWrite(d.Writes)
	}
	return res, nil
}

// beanKeyBuilder assembles bean cache keys without the intermediate
// map[string]string and per-value strings of the naive implementation;
// instances are pooled. The output matches cache.Key byte for byte.
type beanKeyBuilder struct {
	names []string
	buf   []byte
}

var beanKeyPool = sync.Pool{New: func() interface{} { return new(beanKeyBuilder) }}

// beanKey builds the cache key from the unit ID and typed inputs.
func beanKey(unitID string, inputs map[string]Value) string {
	if len(inputs) == 0 {
		return unitID
	}
	kb := beanKeyPool.Get().(*beanKeyBuilder)
	kb.names = kb.names[:0]
	for n := range inputs {
		kb.names = append(kb.names, n)
	}
	slices.Sort(kb.names)
	kb.buf = append(kb.buf[:0], unitID...)
	for _, n := range kb.names {
		kb.buf = append(kb.buf, '|')
		kb.buf = append(kb.buf, n...)
		kb.buf = append(kb.buf, '=')
		kb.buf = rdb.AppendValue(kb.buf, inputs[n])
	}
	key := string(kb.buf)
	beanKeyPool.Put(kb)
	return key
}
