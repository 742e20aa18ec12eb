package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"webmlgo/internal/obs"
)

// LayerDef names one per-layer metric, the layer (module) it measures,
// the end-to-end metric it should move and the workloads that must
// exercise it (nil: every workload). On any other workload it may have
// no samples, and then it is reported as null.
type LayerDef struct {
	Name  string
	Unit  string
	Layer string
	Moves string
	On    []string
}

// Workload sets of LayerDef.On.
var (
	onAll   []string
	onWrite = []string{wAnonWrite}
	onTail  = []string{wLongTail}
)

// e2eDefs are the end-to-end metrics of the result line (BENCHMARK.json
// end_to_end): the ones whose spread over seeds stays inside a bound on
// a shared machine whose host steals CPU in bursts. The untraced run's
// report file and standard error carry these and every other metric it
// measures (latency percentiles, goodput, error rate).
var e2eDefs = []LayerDef{
	{Name: "server_cpu_us_per_req", Unit: "us"},
	{Name: "peak_rss_mb", Unit: "MiB"},
	{Name: "setup_s", Unit: "s"},
}

// layerDefs is the per-layer ledger, in table order.
var layerDefs = []LayerDef{
	{"e2e.page_p50_us", "us", "whole request, untraced pass", "—", onAll},
	{"e2e.page_p99_us", "us", "whole request, untraced pass", "—", onAll},
	{"e2e.op_p50_us", "us", "whole request, untraced pass", "—", onWrite},
	{"e2e.op_p99_us", "us", "whole request, untraced pass", "—", onWrite},
	{"e2e.error_rate", "fraction", "whole request, untraced pass", "—", onAll},
	{"http.self_us_p50", "us", "http (net/http, socket, response write)", "page_p50_us, goodput_rps", onAll},
	{"http.self_us_p99", "us", "http (net/http, socket, response write)", "page_p50_us, goodput_rps", onAll},
	{"http.resp_bytes_per_req", "bytes", "http", "page_p50_us, goodput_rps", onAll},
	{"edge.hit_ratio", "ratio", "internal/edge", "page_p50_us, page_p99_us", onWrite},
	{"edge.self_us_p50", "us", "internal/edge", "page_p50_us, page_p99_us", onAll},
	{"edge.self_us_p99", "us", "internal/edge", "page_p50_us, page_p99_us", onAll},
	{"edge.origin_fetches_per_req", "count", "internal/edge", "page_p99_us (refills after purge)", onAll},
	{"admit.wait_us_p99", "us", "internal/admit", "error_rate, page_p99_us", onAll},
	{"admit.shed_ratio", "ratio", "internal/admit", "error_rate, page_p99_us", onAll},
	{"mvc.controller_self_us_p50", "us", "internal/mvc controller", "page_p50_us, server_cpu_us_per_req", onAll},
	{"mvc.controller_self_us_p99", "us", "internal/mvc controller", "page_p50_us, server_cpu_us_per_req", onAll},
	{"mvc.page_compute_us_p50", "us", "internal/mvc page service", "page_p50_us, server_cpu_us_per_req", onAll},
	{"mvc.page_compute_us_p99", "us", "internal/mvc page service", "page_p50_us, server_cpu_us_per_req", onAll},
	{"mvc.unit_calls_per_req", "count", "internal/mvc page service", "page_p50_us, server_cpu_us_per_req", onAll},
	{"cache.bean_hit_ratio", "ratio", "internal/mvc CachedBusiness + internal/cache", "page_p50_us, page_p99_us, op_p50_us", onAll},
	{"cache.bean_self_us_p50", "us", "internal/mvc CachedBusiness + internal/cache", "page_p50_us", onAll},
	{"cache.bean_self_us_p99", "us", "internal/mvc CachedBusiness + internal/cache", "page_p50_us", onAll},
	{"cache.bean_invalidations_per_op", "count", "internal/cache", "page_p99_us, op_p50_us", onWrite},
	{"render.self_us_p50", "us", "internal/render", "page_p50_us, server_cpu_us_per_req", onAll},
	{"render.self_us_p99", "us", "internal/render", "page_p50_us, server_cpu_us_per_req", onAll},
	{"render.calls_per_req", "count", "internal/render", "page_p50_us, server_cpu_us_per_req", onAll},
	{"render.bytes_per_call", "bytes", "internal/render", "page_p50_us, server_cpu_us_per_req", onAll},
	{"ejb.call_us_p50", "us", "internal/ejb client + wire", "page_p50_us, op_p50_us", onAll},
	{"ejb.call_us_p99", "us", "internal/ejb client + wire", "page_p50_us, op_p50_us", onAll},
	{"ejb.calls_per_req", "count", "internal/ejb client + wire", "page_p50_us, op_p50_us", onAll},
	{"ejb.frames_per_req", "count", "internal/ejb client + wire", "page_p50_us, op_p50_us", onAll},
	{"ejb.wire_self_us_p50", "us", "internal/ejb client + wire", "page_p50_us, op_p50_us", onAll},
	{"ejb.container_queue_us_p99", "us", "internal/ejb container", "page_p99_us", onTail},
	{"ejb.container_invoke_us_p50", "us", "internal/ejb container", "page_p99_us", onAll},
	{"ejb.container_invoke_us_p99", "us", "internal/ejb container", "page_p99_us", onAll},
	{"rdb.query_us_p50", "us", "internal/rdb planner + executor", "page_p50_us, op_p50_us", onAll},
	{"rdb.query_us_p99", "us", "internal/rdb planner + executor", "page_p50_us, op_p50_us", onAll},
	{"rdb.queries_per_req", "count", "internal/rdb planner + executor", "page_p50_us", onAll},
	{"rdb.full_scans_per_req", "count", "internal/rdb planner + executor", "page_p50_us", onAll},
	{"rdb.plan_cache_hit_ratio", "ratio", "internal/rdb planner + executor", "page_p50_us", onAll},
	{"rdb.commit_us_p50", "us", "internal/rdb commit", "op_p50_us", onWrite},
	{"rdb.commit_us_p99", "us", "internal/rdb commit", "op_p50_us", onWrite},
	{"rdb.row_faults_per_req", "count", "internal/rdb paging", "page_p50_us, page_p99_us", onAll},
	{"rdb.row_fault_us_p50", "us", "internal/rdb paging", "page_p50_us, page_p99_us", onTail},
	{"rdb.row_fault_us_p99", "us", "internal/rdb paging", "page_p50_us, page_p99_us", onTail},
	{"pager.pool_hit_ratio", "ratio", "internal/rdb/storage/pager", "page_p50_us, page_p99_us", onTail},
	{"pager.pool_misses_per_req", "count", "internal/rdb/storage/pager", "page_p50_us, page_p99_us", onAll},
	{"pager.checkpoints", "count", "internal/rdb/storage/pager", "op_p99_us (checkpoint stalls)", onAll},
	{"wal.fsyncs_per_op", "count", "internal/rdb/storage/wal", "op_p50_us, op_p99_us", onWrite},
	{"wal.records_per_fsync", "count", "internal/rdb/storage/wal", "op_p50_us, op_p99_us", onWrite},
	{"wal.bytes_per_op", "bytes", "internal/rdb/storage/wal", "op_p50_us, op_p99_us", onWrite},
	{"runtime.gc_cpu_fraction", "fraction", "Go runtime (server)", "server_cpu_us_per_req, page_p99_us", onAll},
	{"runtime.alloc_bytes_per_req", "bytes", "Go runtime (server)", "server_cpu_us_per_req, peak_rss_mb", onAll},
	{"runtime.heap_live_mb", "MiB", "Go runtime (server)", "peak_rss_mb", onAll},
	{"runtime.goroutines", "count", "Go runtime (server)", "server_cpu_us_per_req", onAll},
	{"gen.lateness_p99_us", "us", "load generator (harness)", "— (run validity)", onAll},
	{"trace.overhead_page_p50_us", "us", "tracing wrappers (harness)", "— (traced minus untraced)", onAll},
	{"trace.overhead_page_p99_us", "us", "tracing wrappers (harness)", "— (traced minus untraced)", onAll},
}

// lineDefs are the per-layer metrics of the --trace 1 result line
// (BENCHMARK.json per_layer): the ledger rows that have samples on every
// workload, less admit.wait_us_p99, which at no more than nproc
// connections never queues and reads the histogram's lowest bucket on
// every run. Rows that are undefined on some workload (operations,
// commits, WAL, edge hits, row-fault times) or only asked of long-tail
// (the container queue wait, 0 at these rates) stay in the report files.
var lineDefs = func() []LayerDef {
	var out []LayerDef
	for _, d := range layerDefs {
		if d.On == nil && d.Name != "admit.wait_us_p99" {
			out = append(out, d)
		}
	}
	return out
}()

// LayerValue is one result with the number of samples or events it
// was computed from: observations for a percentile, the denominator for
// a ratio. A value from no samples is undefined, not zero.
type LayerValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

// value is the reported value: nil when there were no samples.
func (v LayerValue) value() *float64 {
	if v.Samples <= 0 {
		return nil
	}
	return &v.Value
}

// metric is v as a result-line metric. The line needs a number for
// every metric; the metrics it carries have samples on every workload
// (the smoke test checks this), and one that loses them, because a
// change removed the work it measures, reads 0 there and stays null in
// the report files.
func (v LayerValue) metric(unit string) Metric {
	if v.Samples <= 0 {
		return Metric{Value: 0, Unit: unit}
	}
	return Metric{Value: v.Value, Unit: unit}
}

// MarshalJSON writes a value with no samples as null.
func (v LayerValue) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Value   *float64 `json:"value"`
		Unit    string   `json:"unit"`
		Samples int64    `json:"samples"`
	}{v.value(), v.Unit, v.Samples})
}

// runOut is one fixed-rate phase with everything the report needs.
type runOut struct {
	gen    *Gen
	ph     *Phase
	client []Sample
	spans  []SpanRec
	agg    map[string]AggStat
}

// tracePass runs the fixed-rate phase against a fresh server, traced or
// not.
func (r *runner) tracePass(traced bool) (*runOut, error) {
	p, _, err := r.startServer(traced)
	if err != nil {
		return nil, err
	}
	defer p.Stop()
	g, err := newGen(p.Addr, r.conns, r.checker)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	m := newMix(r.o.Workload, r.corpus, r.o.Seed)
	r.warm(g, m)
	out := &runOut{gen: g}
	if traced {
		if _, err := p.Spans(""); err != nil {
			return nil, err
		}
	}
	g.startLog()
	// Each pass gets half the fixed-rate share, so that the traced run
	// takes no longer than the untraced one.
	if out.ph, err = r.fixedPhase(p, g, m, r.share(r.wc.PageShare/2)); err != nil {
		return nil, err
	}
	out.client = g.stopLog()
	if traced {
		path := filepath.Join(workDir, "report", fmt.Sprintf("%s-%d.spans.jsonl", r.o.Workload, r.o.Seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if out.agg, err = p.Spans(path); err != nil {
			return nil, err
		}
		out.spans, err = readSpans(path)
		os.Remove(path)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func readSpans(path string) ([]SpanRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []SpanRec
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s SpanRec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// traced is the --trace 1 run: the fixed-rate phase once untraced and
// once traced, each on a fresh server and data copy, with the same seed.
func (r *runner) traced() (*Result, error) {
	defer r.cleanup()
	base, err := r.tracePass(false)
	if err != nil {
		return nil, err
	}
	tr, err := r.tracePass(true)
	if err != nil {
		return nil, err
	}
	vals := r.layers(tr)
	a1, f1, _ := base.gen.Counts()
	for name, v := range requestMetrics(base.ph) {
		vals["e2e."+name] = v
	}
	vals["e2e.error_rate"] = LayerValue{float64(f1) / float64(max(a1, 1)), "fraction", a1}
	bl, tl := latenciesUS(base.ph.Pages), latenciesUS(tr.ph.Pages)
	n := int64(min(len(tl), len(bl)))
	vals["trace.overhead_page_p50_us"] = LayerValue{quantile(tl, 0.5) - quantile(bl, 0.5), "us", n}
	vals["trace.overhead_page_p99_us"] = LayerValue{quantile(tl, 0.99) - quantile(bl, 0.99), "us", n}

	res := &Result{Metrics: map[string]Metric{}}
	for _, d := range lineDefs {
		res.Metrics[d.Name] = vals[d.Name].metric(d.Unit)
	}
	a2, f2, _ := tr.gen.Counts()
	res.Attempted, res.Failed = a1+a2, f1+f2
	ok1 := r.verdict(base.gen, base.ph)
	ok2 := r.verdict(tr.gen, tr.ph)
	res.Correct = ok1 && ok2
	if err := r.writeReport(vals, base, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// layers computes the per-layer metrics of a traced phase.
func (r *runner) layers(out *runOut) map[string]LayerValue {
	vals := map[string]LayerValue{}
	put := func(name string, v float64, n int64) {
		vals[name] = LayerValue{Value: v, Samples: n}
	}
	nreq := int64(len(out.client))
	nops := int64(len(out.ph.Ops))
	per := func(x float64) float64 { return ratio(x, float64(nreq)) }
	perOp := func(x float64) float64 { return ratio(x, float64(nops)) }
	b, a := out.ph.Before, out.ph.After

	// Request spans, joined per request.
	st := spanStats(out.spans)
	clientUS := map[uint64]float64{}
	var respBytes int64
	for _, s := range out.client {
		clientUS[s.ID] = float64(s.End-s.Sent) / 1e3
		respBytes += int64(s.Bytes)
	}
	var httpSelf []float64
	for id, h := range st.httpUS {
		if c, ok := clientUS[id]; ok {
			httpSelf = append(httpSelf, c-h)
		}
	}
	sort.Float64s(httpSelf)
	put("http.self_us_p50", quantile(httpSelf, 0.5), int64(len(httpSelf)))
	put("http.self_us_p99", quantile(httpSelf, 0.99), int64(len(httpSelf)))
	put("http.resp_bytes_per_req", per(float64(respBytes)), nreq)

	hits, stale, miss := a.EdgeHit-b.EdgeHit, a.EdgeStale-b.EdgeStale, a.EdgeMiss-b.EdgeMiss
	put("edge.hit_ratio", ratio(float64(hits), float64(hits+stale+miss)), hits+stale+miss)
	put("edge.self_us_p50", p50(st.self["http"]), int64(len(st.self["http"])))
	put("edge.self_us_p99", quantile(st.self["http"], 0.99), int64(len(st.self["http"])))
	put("edge.origin_fetches_per_req", per(float64(st.count["origin"])), nreq)

	soj := a.AdmitSojourn.Delta(b.AdmitSojourn)
	put("admit.wait_us_p99", histQuantileUS(soj, int64(soj.Count), 0.99), int64(soj.Count))
	admitted, shed := a.AdmitAdmitted-b.AdmitAdmitted, a.AdmitShed-b.AdmitShed
	put("admit.shed_ratio", ratio(float64(shed), float64(admitted+shed)), admitted+shed)

	put("mvc.controller_self_us_p50", p50(st.self["origin"]), int64(len(st.self["origin"])))
	put("mvc.controller_self_us_p99", quantile(st.self["origin"], 0.99), int64(len(st.self["origin"])))
	put("mvc.page_compute_us_p50", p50(st.incl["pages"]), int64(len(st.incl["pages"])))
	put("mvc.page_compute_us_p99", quantile(st.incl["pages"], 0.99), int64(len(st.incl["pages"])))
	put("mvc.unit_calls_per_req", per(float64(st.units)), nreq)

	bh, bm := a.Bean.Hits-b.Bean.Hits, a.Bean.Misses-b.Bean.Misses
	put("cache.bean_hit_ratio", ratio(float64(bh), float64(bh+bm)), bh+bm)
	put("cache.bean_self_us_p50", p50(st.self["bean"]), int64(len(st.self["bean"])))
	put("cache.bean_self_us_p99", quantile(st.self["bean"], 0.99), int64(len(st.self["bean"])))
	inv := a.Bean.Invalidations - b.Bean.Invalidations
	put("cache.bean_invalidations_per_op", perOp(float64(inv)), nops)

	put("render.self_us_p50", p50(st.self["render"]), int64(len(st.self["render"])))
	put("render.self_us_p99", quantile(st.self["render"], 0.99), int64(len(st.self["render"])))
	put("render.calls_per_req", per(float64(st.count["render"])), nreq)
	put("render.bytes_per_call", ratio(float64(st.renderBytes), float64(st.count["render"])), st.count["render"])

	calls := st.spanUS["wire"]
	sort.Float64s(calls)
	invoke := out.agg[aggInvoke]
	put("ejb.call_us_p50", quantile(calls, 0.5), int64(len(calls)))
	put("ejb.call_us_p99", quantile(calls, 0.99), int64(len(calls)))
	put("ejb.calls_per_req", per(float64(len(calls))), nreq)
	frames := a.FramesSent - b.FramesSent
	put("ejb.frames_per_req", per(float64(frames)), nreq)
	// The far side of the wire cannot be joined per request: the wire's
	// own share is the median call less the median container invoke.
	put("ejb.wire_self_us_p50", max(0, quantile(calls, 0.5)-invoke.P50US), min(int64(len(calls)), invoke.Count))
	cq := a.ContainerQueue.Delta(b.ContainerQueue)
	ccalls := a.ContainerCalls - b.ContainerCalls
	put("ejb.container_queue_us_p99", histQuantileUS(cq, ccalls, 0.99), ccalls)
	put("ejb.container_invoke_us_p50", invoke.P50US, invoke.Count)
	put("ejb.container_invoke_us_p99", invoke.P99US, invoke.Count)

	q := out.agg[aggQuery]
	put("rdb.query_us_p50", q.P50US, q.Count)
	put("rdb.query_us_p99", q.P99US, q.Count)
	put("rdb.queries_per_req", per(float64(q.Count)), nreq)
	scans := int64(a.DB.FullScans - b.DB.FullScans)
	put("rdb.full_scans_per_req", per(float64(scans)), nreq)
	ph, pm := a.DB.PlanCacheHits-b.DB.PlanCacheHits, a.DB.PlanCacheMisses-b.DB.PlanCacheMisses
	put("rdb.plan_cache_hit_ratio", ratio(float64(ph), float64(ph+pm)), int64(ph+pm))
	commit := out.agg[aggCommitAll]
	put("rdb.commit_us_p50", commit.P50US, commit.Count)
	put("rdb.commit_us_p99", commit.P99US, commit.Count)

	e0, e1 := b.Engine, a.Engine
	faults := int64(e1.RowFaults - e0.RowFaults)
	put("rdb.row_faults_per_req", per(float64(faults)), nreq)
	fl := out.agg[aggFault]
	put("rdb.row_fault_us_p50", fl.P50US, fl.Count)
	put("rdb.row_fault_us_p99", fl.P99US, fl.Count)
	poolH, poolM := e1.PoolHits-e0.PoolHits, e1.PoolMisses-e0.PoolMisses
	put("pager.pool_hit_ratio", ratio(float64(poolH), float64(poolH+poolM)), int64(poolH+poolM))
	put("pager.pool_misses_per_req", per(float64(poolM)), nreq)
	// Checkpoints counted over the whole phase: zero is a measurement.
	put("pager.checkpoints", float64(e1.Checkpoints-e0.Checkpoints), nreq)

	fsyncs, appends := e1.WALFsyncs-e0.WALFsyncs, e1.WALAppends-e0.WALAppends
	put("wal.fsyncs_per_op", perOp(float64(fsyncs)), nops)
	put("wal.records_per_fsync", ratio(float64(appends), float64(fsyncs)), int64(fsyncs))
	put("wal.bytes_per_op", perOp(float64(e1.WALBytes-e0.WALBytes)), nops)

	put("runtime.gc_cpu_fraction", ratio(a.GCCPUSeconds-b.GCCPUSeconds, a.TotalCPUSeconds-b.TotalCPUSeconds), nreq)
	put("runtime.alloc_bytes_per_req", per(float64(a.AllocBytes-b.AllocBytes)), nreq)
	put("runtime.heap_live_mb", float64(a.HeapLiveBytes)/(1<<20), 1)
	put("runtime.goroutines", float64(a.Goroutines), 1)

	first, second := lateness(append(append([]Sample(nil), out.ph.Pages...), out.ph.Ops...))
	put("gen.lateness_p99_us", max(first, second), int64(len(out.ph.Pages)+len(out.ph.Ops)))
	for _, d := range layerDefs {
		if v, ok := vals[d.Name]; ok {
			v.Unit = d.Unit
			vals[d.Name] = v
		}
	}
	return vals
}

// spanSummary aggregates the request spans of a phase.
type spanSummary struct {
	httpUS      map[uint64]float64   // request -> root span µs
	self        map[string][]float64 // layer -> per-request self µs, sorted
	incl        map[string][]float64 // layer -> per-request inclusive µs, sorted
	spanUS      map[string][]float64 // layer -> per-span µs
	count       map[string]int64     // layer -> spans
	units       int64                // unit computations asked of the bean layer
	renderBytes int64
}

func spanStats(spans []SpanRec) *spanSummary {
	st := &spanSummary{httpUS: map[uint64]float64{}, self: map[string][]float64{},
		incl: map[string][]float64{}, spanUS: map[string][]float64{}, count: map[string]int64{}}
	byReq := map[uint64][]SpanRec{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for _, ss := range byReq {
		sort.Slice(ss, func(i, j int) bool { return ss[i].ID < ss[j].ID })
		children := make([][]int, len(ss))
		for i, s := range ss {
			if s.Parent >= 0 && s.Parent < len(ss) {
				children[s.Parent] = append(children[s.Parent], i)
			}
		}
		selfSum, inclSum := map[string]float64{}, map[string]float64{}
		for i, s := range ss {
			dur := float64(s.End-s.Start) / 1e3
			var iv [][2]int64
			for _, c := range children[i] {
				iv = append(iv, [2]int64{ss[c].Start, ss[c].End})
			}
			selfSum[s.Name] += dur - float64(covered(iv, s.Start, s.End))/1e3
			inclSum[s.Name] += dur
			st.spanUS[s.Name] = append(st.spanUS[s.Name], dur)
			st.count[s.Name]++
			switch s.Name {
			case spanHTTP:
				st.httpUS[s.Req] = dur
			case spanBean:
				st.units += int64(s.Units)
			case spanRender:
				st.renderBytes += int64(s.Bytes)
			}
		}
		for name, v := range selfSum {
			st.self[name] = append(st.self[name], v)
			st.incl[name] = append(st.incl[name], inclSum[name])
		}
	}
	for _, m := range []map[string][]float64{st.self, st.incl} {
		for _, v := range m {
			sort.Float64s(v)
		}
	}
	return st
}

// covered is how much of [lo, hi] the intervals cover (their union).
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// histQuantileUS is the q-quantile in µs over n observations, of which
// h holds the non-trivial ones: the remaining n - h.Count are zero
// waits the histogram never saw. A histogram whose observations sum to
// zero reports zero, not its first bucket's interpolated bound.
func histQuantileUS(h obs.HistSnapshot, n int64, q float64) float64 {
	if n <= 0 || h.Count == 0 || h.Sum == 0 {
		return 0
	}
	zeros := float64(n) - float64(h.Count)
	rank := q * float64(n)
	if rank <= zeros {
		return 0
	}
	return float64(h.Quantile((rank-zeros)/float64(h.Count))) / float64(time.Microsecond)
}

func p50(sorted []float64) float64 { return quantile(sorted, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeJSON writes v as indented JSON to name in the report directory.
func writeJSON(name string, v any) error {
	dir := filepath.Join(workDir, "report")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(js, '\n'), 0o644)
}

// writeReport writes the per-layer JSON and text table under the work
// directory and copies the table to stderr.
func (r *runner) writeReport(vals map[string]LayerValue, base, tr *runOut) error {
	dir := filepath.Join(workDir, "report")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.o.Workload, r.o.Seed))
	bl, tl := latenciesUS(base.ph.Pages), latenciesUS(tr.ph.Pages)
	bo, to := latenciesUS(base.ph.Ops), latenciesUS(tr.ph.Ops)
	doc := map[string]any{
		"workload": r.o.Workload,
		"seed":     r.o.Seed,
		"layers":   vals,
		"untraced": map[string]any{"page_p50_us": quantile(bl, 0.5), "page_p99_us": quantile(bl, 0.99),
			"page_samples": len(bl), "op_p50_us": quantile(bo, 0.5), "op_p99_us": quantile(bo, 0.99), "op_samples": len(bo)},
		"traced": map[string]any{"page_p50_us": quantile(tl, 0.5), "page_p99_us": quantile(tl, 0.99),
			"page_samples": len(tl), "op_p50_us": quantile(to, 0.5), "op_p99_us": quantile(to, 0.99), "op_samples": len(to)},
	}
	if err := writeJSON(filepath.Base(stem)+".json", doc); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer ledger: %s, seed %d, %d requests traced\n", r.o.Workload, r.o.Seed, len(tr.client))
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tmetric\tvalue\tunit\tsamples\tshould move")
	for _, d := range layerDefs {
		v, shown := vals[d.Name], "—"
		if v.value() != nil {
			shown = fmt.Sprintf("%.4g", v.Value)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%s\n", d.Layer, d.Name, shown, d.Unit, v.Samples, d.Moves)
	}
	tw.Flush()
	fmt.Fprintf(&sb, "tracing overhead (traced - untraced): page p50 %+.1f us, page p99 %+.1f us (%d/%d samples)",
		quantile(tl, 0.5)-quantile(bl, 0.5), quantile(tl, 0.99)-quantile(bl, 0.99), len(tl), len(bl))
	if len(to) > 0 {
		fmt.Fprintf(&sb, "; op p50 %+.1f us, op p99 %+.1f us (%d/%d samples)",
			quantile(to, 0.5)-quantile(bo, 0.5), quantile(to, 0.99)-quantile(bo, 0.99), len(to), len(bo))
	}
	sb.WriteString("\n")
	if err := os.WriteFile(stem+".txt", []byte(sb.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, sb.String())
	return nil
}
