package mvc

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/rdb"
)

// recordingBusiness records every read it receives: ComputeUnit calls
// per unit, and the unit IDs of each ComputeUnits batch. It affirms
// batch support only when batches is set.
type recordingBusiness struct {
	batches bool

	mu      sync.Mutex
	units   map[string]int
	batched [][]string
}

func (r *recordingBusiness) bean(d *descriptor.Unit) *UnitBean {
	return &UnitBean{UnitID: d.ID, Kind: d.Kind, Nodes: []Node{{Values: Row{"id": d.ID}}}}
}

func (r *recordingBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.units == nil {
		r.units = map[string]int{}
	}
	r.units[d.ID]++
	return r.bean(d), nil
}

func (r *recordingBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	return &OpResult{OK: true}, nil
}

func (r *recordingBusiness) SupportsUnitBatch() bool { return r.batches }

func (r *recordingBusiness) ComputeUnits(ctx context.Context, calls []UnitCall) []UnitResult {
	out := make([]UnitResult, len(calls))
	ids := make([]string, len(calls))
	for i, c := range calls {
		ids[i] = c.D.ID
		out[i].Bean = r.bean(c.D)
	}
	r.mu.Lock()
	r.batched = append(r.batched, ids)
	r.mu.Unlock()
	return out
}

// plainBusiness hides every method but those of Business.
type plainBusiness struct{ Business }

// cachedFanPage is fanPage with every unit tagged for the bean cache.
func cachedFanPage(n int) *descriptor.Repository {
	repo := descriptor.NewRepository()
	pd := fanPage(repo, n)
	for _, ur := range pd.Units {
		ud := repo.Unit(ur.ID)
		ud.Reads = []string{"entity:volume"}
		ud.Cache = &descriptor.CachePolicy{Enabled: true}
	}
	return repo
}

// TestOneDispatchPerLevel pins the scheduler's single dispatch: below a
// Cached→Resilient chain that batches, every schedule level — the
// one-unit root and sink levels included — reaches the bottom as exactly
// one ComputeUnits call carrying that level's units, and ComputeUnit is
// never called. A plain Business sees one ComputeUnit per unit, inline
// and on the worker pool.
func TestOneDispatchPerLevel(t *testing.T) {
	repo := cachedFanPage(3)
	sched, err := repo.Schedule("fan")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		rec := &recordingBusiness{batches: true}
		chain := NewCachedBusiness(NewResilientBusiness(rec, 1), cache.NewBeanCache(64))
		svc := &PageService{Repo: repo, Business: chain, Workers: workers}
		if _, err := svc.ComputePage(context.Background(), "fan", nil, nil); err != nil {
			t.Fatal(err)
		}
		if len(rec.units) != 0 {
			t.Fatalf("workers=%d: batching chain made ComputeUnit calls: %v", workers, rec.units)
		}
		if len(rec.batched) != len(sched.Levels) {
			t.Fatalf("workers=%d: %d ComputeUnits calls for %d levels: %v", workers, len(rec.batched), len(sched.Levels), rec.batched)
		}
		for i, level := range sched.Levels {
			if !slices.Equal(rec.batched[i], level) {
				t.Fatalf("workers=%d: batch %d = %v, want level %v", workers, i, rec.batched[i], level)
			}
		}
	}
	for _, workers := range []int{0, 4} {
		rec := &recordingBusiness{}
		svc := &PageService{Repo: repo, Business: plainBusiness{rec}, Workers: workers}
		state, err := svc.ComputePage(context.Background(), "fan", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.batched) != 0 {
			t.Fatalf("workers=%d: plain business received batches: %v", workers, rec.batched)
		}
		for _, id := range state.Order {
			if rec.units[id] != 1 || state.Beans[id] == nil {
				t.Fatalf("workers=%d: unit %s computed %d times (bean %v)", workers, id, rec.units[id], state.Beans[id])
			}
		}
		if len(rec.units) != len(state.Order) {
			t.Fatalf("workers=%d: computed %v, page has %v", workers, rec.units, state.Order)
		}
	}
}

// TestFormStateErrorsStayPerRequest: validation errors carried by one
// request's form state are cloned onto that request's bean only. The
// bean shared through the cache, and another request reading it, never
// see them — on the batch side and on the worker-pool side.
func TestFormStateErrorsStayPerRequest(t *testing.T) {
	repo := descriptor.NewRepository()
	repo.PutUnit(&descriptor.Unit{ID: "form", Kind: "entry", Reads: []string{"entity:volume"},
		Cache: &descriptor.CachePolicy{Enabled: true}})
	repo.PutPage(&descriptor.Page{ID: "p", Units: []descriptor.UnitRef{{ID: "form"}}})
	batchRec, poolRec := &recordingBusiness{batches: true}, &recordingBusiness{}
	sides := []struct {
		name  string
		rec   *recordingBusiness
		inner Business
	}{
		{"batch", batchRec, batchRec},
		{"pool", poolRec, plainBusiness{poolRec}},
	}
	for _, side := range sides {
		bc := cache.NewBeanCache(64)
		svc := &PageService{Repo: repo, Business: NewCachedBusiness(side.inner, bc), Workers: 4}
		invalid := map[string]*FormState{"form": {Errors: map[string]string{"title": "required"}}}
		for round, fs := range []map[string]*FormState{invalid, nil, invalid, nil} {
			state, err := svc.ComputePage(context.Background(), "p", nil, fs)
			if err != nil {
				t.Fatal(err)
			}
			got := state.Beans["form"].Errors
			if fs != nil && got["title"] != "required" {
				t.Fatalf("%s round %d: the invalid request lost its errors: %v", side.name, round, got)
			}
			if fs == nil && len(got) != 0 {
				t.Fatalf("%s round %d: another request's errors leaked: %v", side.name, round, got)
			}
			shared, ok := bc.Get(beanKey("form", nil))
			if !ok {
				t.Fatalf("%s round %d: bean not cached", side.name, round)
			}
			if errs := shared.(*UnitBean).Errors; len(errs) != 0 {
				t.Fatalf("%s round %d: cached bean carries request errors: %v", side.name, round, errs)
			}
		}
		if n := len(side.rec.units) + len(side.rec.batched); n != 1 {
			t.Fatalf("%s: %d computations, want 1 shared bean", side.name, n)
		}
	}
}

// TestPanicBelowBeanCacheReleasesFlight: a custom component that panics
// below the bean cache fails its request, and the cache key's flight is
// still finished — the next request for the key computes promptly once
// the component recovers, instead of joining a flight nobody will ever
// finish and waiting out its deadline.
func TestPanicBelowBeanCacheReleasesFlight(t *testing.T) {
	repo := descriptor.NewRepository()
	repo.PutUnit(&descriptor.Unit{ID: "u1", Kind: "data", Service: "flaky", Reads: []string{"entity:volume"},
		Cache: &descriptor.CachePolicy{Enabled: true}})
	repo.PutPage(&descriptor.Page{ID: "p", Units: []descriptor.UnitRef{{ID: "u1"}}})
	var broken atomic.Bool
	var computes atomic.Int64
	lb := NewLocalBusiness(rdb.Open())
	lb.RegisterCustomComponent("flaky", UnitServiceFunc(
		func(_ context.Context, _ *rdb.DB, d *descriptor.Unit, _ map[string]Value) (*UnitBean, error) {
			if broken.Load() {
				panic("component bug")
			}
			computes.Add(1)
			return &UnitBean{UnitID: d.ID, Kind: d.Kind}, nil
		}))
	svc := &PageService{Repo: repo, Business: NewCachedBusiness(lb, cache.NewBeanCache(64))}

	broken.Store(true)
	if _, err := svc.ComputePage(context.Background(), "p", nil, nil); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want the contained panic", err)
	}
	broken.Store(false)

	const budget = 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	state, err := svc.ComputePage(ctx, "p", nil, nil)
	elapsed := time.Since(start)
	if err != nil || state.Beans["u1"] == nil {
		t.Fatalf("request after recovery failed after %v with %d computes: %v", elapsed, computes.Load(), err)
	}
	if computes.Load() != 1 || elapsed > budget/2 {
		t.Fatalf("request after recovery: %d computes in %v", computes.Load(), elapsed)
	}
}

// cancelingBusiness cancels the request the first time it computes unit
// at, and still answers that unit.
type cancelingBusiness struct {
	recordingBusiness
	at     string
	cancel context.CancelFunc
}

func (c *cancelingBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	if d.ID == c.at {
		c.cancel()
	}
	return c.recordingBusiness.ComputeUnit(ctx, d, inputs)
}

// TestCanceledLevelStopsAndReportsContext: once the request is canceled
// mid-level, no further unit of the level starts, and the page fails
// with the context's error rather than with a skipped unit's.
func TestCanceledLevelStopsAndReportsContext(t *testing.T) {
	repo := descriptor.NewRepository()
	fanPage(repo, 8)
	for _, workers := range []int{0, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		b := &cancelingBusiness{at: "mid00", cancel: cancel}
		svc := &PageService{Repo: repo, Business: plainBusiness{b}, Workers: workers}
		_, err := svc.ComputePage(ctx, "fan", nil, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Inline, nothing after mid00 starts; on the pool, peers may have
		// claimed units before the cancel, but the next level never runs.
		if b.units["sink"] != 0 || workers == 0 && len(b.units) != 2 {
			t.Fatalf("workers=%d: computed %v after the cancel", workers, b.units)
		}
	}
}
