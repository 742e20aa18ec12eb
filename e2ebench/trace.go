package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
)

// This file is the traced run's instrumentation. Every span comes from
// a wrapper around a public seam of the stack; nothing inside the
// program is changed. Spans are kept in memory and written out when the
// run asks for them.

// reqHeader carries the generator's request ID to the outermost
// handler, so client-side and server-side spans of one request join.
const reqHeader = "X-Bench-Req"

// Span names. Request spans nest http > origin > {pages, render, bean};
// pages > bean; bean > wire.
const (
	spanHTTP   = "http"   // outermost handler
	spanOrigin = "origin" // Surrogate.Origin (the controller)
	spanPages  = "pages"  // Controller.Pages
	spanRender = "render" // Controller.Renderer
	spanBean   = "bean"   // business above the bean cache
	spanWire   = "wire"   // business below the bean cache (the ejb client)
)

// Unjoined spans: the far side of the wire and the data tier, where a
// span cannot be tied to its web request. They are kept as durations.
const (
	aggInvoke    = "container.invoke"
	aggQuery     = "rdb.query"
	aggCommit    = "rdb.commit"
	aggFault     = "rdb.row_fault"
	aggCommitAll = "rdb.commit+sync"
)

// SpanRec is one recorded span. Times are nanoseconds since the tracer
// started; Parent is the index of the parent span in its request, -1
// for the root.
type SpanRec struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Units is the number of unit computations a business span carried.
	Units int `json:"units,omitempty"`
	// Bytes is the output size of a render span.
	Bytes int `json:"bytes,omitempty"`
}

type reqTrace struct {
	id    uint64
	mu    sync.Mutex
	spans []SpanRec
}

type spanCtx struct {
	rt  *reqTrace
	idx int
}

type spanKey struct{}

// maxAggSamples caps each unjoined duration series; counts go on past it.
const maxAggSamples = 1 << 20

type durations struct {
	n   int64
	sum int64
	ns  []int64
}

// Tracer records request spans and unjoined durations.
type Tracer struct {
	epoch time.Time

	mu   sync.Mutex
	done []*reqTrace
	agg  map[string]*durations

	// gmu guards byG (the request an origin call is running for, keyed
	// by goroutine, for the context-free renderer seam) and commits (the
	// start of an in-flight commit, to add its fsync wait).
	gmu     sync.Mutex
	byG     map[uint64]spanCtx
	commits map[uint64]time.Time
}

func newTracer() *Tracer {
	return &Tracer{
		epoch:   time.Now(),
		agg:     map[string]*durations{},
		byG:     map[uint64]spanCtx{},
		commits: map[uint64]time.Time{},
	}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the request in ctx; ok is false when ctx
// belongs to no traced request (an edge refresh, say).
func (t *Tracer) begin(ctx context.Context, name string) (context.Context, spanCtx, bool) {
	parent, ok := ctx.Value(spanKey{}).(spanCtx)
	if !ok {
		return ctx, spanCtx{}, false
	}
	sc := t.open(parent, name)
	return context.WithValue(ctx, spanKey{}, sc), sc, true
}

func (t *Tracer) open(parent spanCtx, name string) spanCtx {
	rt := parent.rt
	rt.mu.Lock()
	idx := len(rt.spans)
	rt.spans = append(rt.spans, SpanRec{Req: rt.id, ID: idx, Parent: parent.idx, Name: name, Start: t.now()})
	rt.mu.Unlock()
	return spanCtx{rt: rt, idx: idx}
}

func (t *Tracer) end(sc spanCtx, units, bytes int) {
	end := t.now()
	sc.rt.mu.Lock()
	s := &sc.rt.spans[sc.idx]
	s.End, s.Units, s.Bytes = end, units, bytes
	sc.rt.mu.Unlock()
}

func (t *Tracer) observe(name string, d time.Duration) {
	t.mu.Lock()
	a := t.agg[name]
	if a == nil {
		a = &durations{}
		t.agg[name] = a
	}
	a.n++
	a.sum += int64(d)
	if len(a.ns) < maxAggSamples {
		a.ns = append(a.ns, int64(d))
	}
	t.mu.Unlock()
}

// Handler wraps the outermost http.Handler: the root span of a request.
func (t *Tracer) Handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		rt := &reqTrace{id: id}
		rt.spans = append(rt.spans, SpanRec{Req: id, Parent: -1, Name: spanHTTP, Start: t.now()})
		sc := spanCtx{rt: rt}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sc)))
		t.end(sc, 0, 0)
		t.mu.Lock()
		t.done = append(t.done, rt)
		t.mu.Unlock()
	})
}

// Origin wraps Surrogate.Origin. It also records which request the
// calling goroutine serves, for the renderer wrapper.
func (t *Tracer) Origin(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, sc, ok := t.begin(r.Context(), spanOrigin)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		g := goid()
		t.gmu.Lock()
		prev, had := t.byG[g]
		t.byG[g] = sc
		t.gmu.Unlock()
		h.ServeHTTP(w, r.WithContext(ctx))
		t.gmu.Lock()
		if had {
			t.byG[g] = prev
		} else {
			delete(t.byG, g)
		}
		t.gmu.Unlock()
		t.end(sc, 0, 0)
	})
}

// goid returns the calling goroutine's ID, parsed from its stack
// header ("goroutine 123 [running]:"). The renderer seam carries no
// context, so this is how a render call finds its request.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Renderer wraps Controller.Renderer, forwarding the edge-mode
// interfaces (ContainerRenderer, FragmentRenderer) and the User-Agent
// probe the controller type-asserts for.
type Renderer interface {
	mvc.Renderer
	mvc.ContainerRenderer
	mvc.FragmentRenderer
	VariesByUserAgent() bool
}

type tracedRenderer struct {
	t     *Tracer
	inner Renderer
}

func (r *tracedRenderer) span(render func() ([]byte, error)) ([]byte, error) {
	r.t.gmu.Lock()
	parent, ok := r.t.byG[goid()]
	r.t.gmu.Unlock()
	if !ok {
		return render()
	}
	sc := r.t.open(parent, spanRender)
	out, err := render()
	r.t.end(sc, 0, len(out))
	return out, err
}

func (r *tracedRenderer) RenderPage(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext) ([]byte, error) {
	return r.span(func() ([]byte, error) { return r.inner.RenderPage(pd, state, ctx) })
}

func (r *tracedRenderer) RenderContainer(pd *descriptor.Page, ctx *mvc.RequestContext) ([]byte, error) {
	return r.span(func() ([]byte, error) { return r.inner.RenderContainer(pd, ctx) })
}

func (r *tracedRenderer) RenderUnitFragment(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, unitID string) ([]byte, error) {
	return r.span(func() ([]byte, error) { return r.inner.RenderUnitFragment(pd, state, ctx, unitID) })
}

func (r *tracedRenderer) VariesByUserAgent() bool { return r.inner.VariesByUserAgent() }

// tracedPages wraps Controller.Pages.
type tracedPages struct {
	t     *Tracer
	inner mvc.PageComputer
}

func (p *tracedPages) ComputePage(ctx context.Context, pageID string, request map[string]mvc.Value, formState map[string]*mvc.FormState) (*mvc.PageState, error) {
	ctx, sc, ok := p.t.begin(ctx, spanPages)
	st, err := p.inner.ComputePage(ctx, pageID, request, formState)
	if ok {
		p.t.end(sc, 0, 0)
	}
	return st, err
}

// tracedBusiness wraps an mvc.Business at one level of the stack. It
// forwards level batches so the page scheduler keeps batching. With
// agg set it records unjoined durations (inside a container) instead
// of request spans.
type tracedBusiness struct {
	t     *Tracer
	inner mvc.Business
	name  string
	agg   bool
}

func (b *tracedBusiness) run(ctx context.Context, units int, call func(context.Context)) {
	if b.agg {
		start := time.Now()
		call(ctx)
		b.t.observe(b.name, time.Since(start))
		return
	}
	ctx, sc, ok := b.t.begin(ctx, b.name)
	call(ctx)
	if ok {
		b.t.end(sc, units, 0)
	}
}

func (b *tracedBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (bean *mvc.UnitBean, err error) {
	b.run(ctx, 1, func(ctx context.Context) { bean, err = b.inner.ComputeUnit(ctx, d, inputs) })
	return bean, err
}

func (b *tracedBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (res *mvc.OpResult, err error) {
	b.run(ctx, 0, func(ctx context.Context) { res, err = b.inner.ExecuteOperation(ctx, d, inputs) })
	return res, err
}

func (b *tracedBusiness) SupportsUnitBatch() bool { return mvc.SupportsUnitBatch(b.inner) }

func (b *tracedBusiness) ComputeUnits(ctx context.Context, calls []mvc.UnitCall) (out []mvc.UnitResult) {
	b.run(ctx, len(calls), func(ctx context.Context) { out = mvc.ComputeUnitsOf(ctx, b.inner, calls) })
	return out
}

// Hooks returns the data-tier trace hooks: every query and commit is
// timed, unjoined. A commit's time includes its group-commit fsync
// wait, which runs on the same goroutine right after it.
func (t *Tracer) Hooks() *rdb.TraceHooks {
	return &rdb.TraceHooks{
		Span: func(_ context.Context, name string) rdb.SpanFinish {
			start := time.Now()
			switch name {
			case aggCommit:
				g := goid()
				t.gmu.Lock()
				t.commits[g] = start
				t.gmu.Unlock()
			case "rdb.wal.sync":
				return func(error, ...string) {
					g := goid()
					t.gmu.Lock()
					began, ok := t.commits[g]
					delete(t.commits, g)
					t.gmu.Unlock()
					if ok {
						t.observe(aggCommitAll, time.Since(began))
					}
				}
			}
			return func(error, ...string) { t.observe(name, time.Since(start)) }
		},
		TraceID: func(context.Context) uint64 { return 0 },
	}
}

// Fault is the row-fault observer.
func (t *Tracer) Fault(d time.Duration) { t.observe(aggFault, d) }

// AggStat summarizes one unjoined duration series.
type AggStat struct {
	Count int64   `json:"count"`
	SumUS float64 `json:"sum_us"`
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
}

// Dump writes every finished request's spans to path as JSON lines,
// returns the unjoined summaries, and resets both, so each phase is
// dumped on its own. An empty path discards the spans (warm-up).
func (t *Tracer) Dump(path string) (map[string]AggStat, error) {
	t.mu.Lock()
	done, agg := t.done, t.agg
	t.done, t.agg = nil, map[string]*durations{}
	t.mu.Unlock()
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rt := range done {
		rt.mu.Lock()
		for _, s := range rt.spans {
			if err := enc.Encode(s); err != nil {
				rt.mu.Unlock()
				f.Close()
				return nil, err
			}
		}
		rt.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	out := make(map[string]AggStat, len(agg))
	for name, a := range agg {
		sort.Slice(a.ns, func(i, j int) bool { return a.ns[i] < a.ns[j] })
		out[name] = AggStat{
			Count: a.n,
			SumUS: float64(a.sum) / 1e3,
			P50US: float64(quantileSorted(a.ns, 0.50)) / 1e3,
			P99US: float64(quantileSorted(a.ns, 0.99)) / 1e3,
		}
	}
	return out, nil
}

// quantileSorted returns the nearest-rank q-quantile of sorted values.
func quantileSorted(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	i := int(q*float64(len(v))+0.5) - 1
	i = max(0, min(i, len(v)-1))
	return v[i]
}
