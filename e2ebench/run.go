package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runner executes one benchmark invocation.
type runner struct {
	cfg     *Config
	wc      WorkloadConfig
	o       Options
	corpus  *Corpus
	checker *Checker
	tpl     string
	conns   int
	copies  int
}

// share is a phase's slice of --seconds.
func (r *runner) share(f float64) time.Duration {
	return time.Duration(f * float64(r.o.Seconds) * float64(time.Second))
}

// freshCopy copies the corpus template into a new data directory.
func (r *runner) freshCopy() (string, error) {
	r.copies++
	dir := filepath.Join(workDir, "run", fmt.Sprintf("%d-%d", os.Getpid(), r.copies))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, copyDir(r.tpl, dir)
}

// cleanup removes this invocation's data copies.
func (r *runner) cleanup() {
	for i := 1; i <= r.copies; i++ {
		os.RemoveAll(filepath.Join(workDir, "run", fmt.Sprintf("%d-%d", os.Getpid(), i)))
	}
}

// startServer starts a server over a fresh data copy and returns it
// with its set-up time: from spawn to the first validated page.
func (r *runner) startServer(traced bool) (*Proc, time.Duration, error) {
	dir, err := r.freshCopy()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	p, err := spawn(dir, traced)
	if err != nil {
		return nil, 0, err
	}
	c, err := dial(p.Addr)
	if err != nil {
		p.Stop()
		return nil, 0, err
	}
	defer c.Close()
	req := pageReq(kVolume, 1)
	resp, err := c.Do("GET", req.Target, "", 0, "")
	if err == nil {
		if msg := r.checker.Check(req, resp); msg != "" {
			err = fmt.Errorf("first page: %s", msg)
		}
	}
	if err != nil {
		p.Stop()
		return nil, 0, err
	}
	return p, time.Since(t0), nil
}

// setup starts SetupSpawns servers one after another and keeps the
// last; it returns the median set-up time in seconds.
func (r *runner) setup() (*Proc, float64, error) {
	var ts []float64
	var p *Proc
	for i := 0; i < max(1, r.cfg.SetupSpawns); i++ {
		if p != nil {
			p.Stop()
		}
		var d time.Duration
		var err error
		if p, d, err = r.startServer(false); err != nil {
			return nil, 0, err
		}
		ts = append(ts, d.Seconds())
	}
	return p, median(ts), nil
}

// warm fills the caches before timing: every hot volume once, then
// WarmRequests draws of the workload's own mix.
func (r *runner) warm(g *Gen, m *mix) {
	start := time.Now()
	var reqs []PageReq
	if m.name != wLongTail {
		reqs = append(reqs, pageReq(kVolumes, 0))
		for _, v := range m.hot {
			reqs = append(reqs, pageReq(kVolume, v))
		}
		for i := range reqs {
			reqs[i].Member = m.member
		}
	}
	for i := 0; i < r.wc.WarmRequests; i++ {
		reqs = append(reqs, m.next())
	}
	for _, q := range reqs {
		resp, _, err := g.do(start, "GET", q.Target, q.Member, "")
		if err != nil {
			g.fail(err.Error())
		} else if msg := r.checker.Check(q, resp); msg != "" {
			g.fail(msg)
		}
	}
}

// Phase is the fixed-rate phase: the reader stream at its rate and,
// when the workload writes, the manager's write stream at OpRate
// alongside.
type Phase struct {
	Pages    []Sample
	Ops      []Sample
	Requests int64 // every request sent in the phase, checks included
	CPU      time.Duration
	Before   ServerStats
	After    ServerStats
}

func (r *runner) fixedPhase(p *Proc, g *Gen, m *mix, d time.Duration) (*Phase, error) {
	reqs := m.schedule(r.wc.PageRate, d)
	ph := &Phase{}
	var err error
	if ph.Before, err = p.Stats(); err != nil {
		return nil, err
	}
	cpu0, err := p.CPUTime()
	if err != nil {
		return nil, err
	}
	att0, _, _ := g.Counts()
	start := time.Now().Add(10 * time.Millisecond)
	readers := r.conns
	done := make(chan struct{})
	if r.wc.OpRate > 0 {
		// The manager gets a connection of its own, so writes never
		// queue behind page requests in the generator.
		readers--
		mc := <-g.pool
		go func() {
			defer close(done)
			ph.Ops = g.Manager(mc, start, r.wc.OpRate, d, fmt.Sprintf("%dp", r.o.Seed))
			g.pool <- mc
		}()
	} else {
		close(done)
	}
	ph.Pages = g.OpenLoop(start, reqs, readers)
	<-done
	cpu1, err := p.CPUTime()
	if err != nil {
		return nil, err
	}
	ph.CPU = cpu1 - cpu0
	att1, _, _ := g.Counts()
	ph.Requests = att1 - att0
	if ph.After, err = p.Stats(); err != nil {
		return nil, err
	}
	return ph, nil
}

// untraced is the --trace 0 run: set-up, the fixed-rate phases and the
// closed-loop saturation phase, all validated.
func (r *runner) untraced() (*Result, error) {
	defer r.cleanup()
	p, setupS, err := r.setup()
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

	pages, err := r.fixedPhase(p, g, m, r.share(r.wc.PageShare))
	if err != nil {
		return nil, err
	}
	closed := g.ClosedLoop(r.share(r.wc.ClosedShare), r.conns, m.next)
	rss, err := p.PeakRSS()
	if err != nil {
		return nil, err
	}

	vals := requestMetrics(pages)
	put := func(name, unit string, v float64, n int) { vals[name] = LayerValue{v, unit, int64(n)} }
	limit := time.Duration(r.wc.LatencyLimitMS * float64(time.Millisecond))
	put("goodput_rps", "1/s", goodput(closed, r.share(r.wc.ClosedShare), limit), len(closed))
	put("server_cpu_us_per_req", "us", float64(pages.CPU.Microseconds())/float64(max(pages.Requests, 1)), int(pages.Requests))
	put("peak_rss_mb", "MiB", float64(rss)/(1<<20), 1)
	put("setup_s", "s", setupS, max(1, r.cfg.SetupSpawns))
	pl, ol := latenciesUS(pages.Pages), latenciesUS(pages.Ops)

	attempted, failed, _ := g.Counts()
	put("error_rate", "fraction", float64(failed)/float64(max(attempted, 1)), int(attempted))
	res := &Result{Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	for _, d := range e2eDefs {
		res.Metrics[d.Name] = vals[d.Name].metric(d.Unit)
	}
	res.Correct = r.verdict(g, pages)
	fmt.Fprintf(os.Stderr, "e2ebench %s seed %d: pages %d samples (p50 over %d windows, p99 over %d), pooled µs p10 %.0f p25 %.0f p50 %.0f p90 %.0f p99 %.0f; ops %d samples (%d/%d windows), pooled µs p10 %.0f p25 %.0f p50 %.0f p99 %.0f; %d closed-loop requests; error_rate %.6f\n",
		r.o.Workload, r.o.Seed, len(pl), windowCount(len(pl), p50Window), windowCount(len(pl), p99Window), quantile(pl, 0.1), quantile(pl, 0.25), quantile(pl, 0.5), quantile(pl, 0.9), quantile(pl, 0.99),
		len(ol), windowCount(len(ol), p50Window), windowCount(len(ol), p99Window), quantile(ol, 0.1), quantile(ol, 0.25), quantile(ol, 0.5), quantile(ol, 0.99), len(closed),
		vals["error_rate"].Value)
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := vals[name]
		fmt.Fprintf(os.Stderr, "e2ebench: %-22s %12.4f %-8s (%d samples)\n", name, v.Value, v.Unit, v.Samples)
	}
	if err := writeJSON(fmt.Sprintf("%s-seed%d-e2e.json", r.o.Workload, r.o.Seed), map[string]any{
		"workload": r.o.Workload, "seed": r.o.Seed, "correct": res.Correct, "metrics": vals}); err != nil {
		return nil, err
	}
	return res, nil
}

// requestMetrics are the latency percentiles of a phase's pages and
// ops; a workload without writes has no op samples.
func requestMetrics(ph *Phase) map[string]LayerValue {
	vals := map[string]LayerValue{}
	for _, m := range []struct {
		name string
		ss   []Sample
		q    float64
		minN int
	}{
		{"page_p10_us", ph.Pages, 0.10, p50Window},
		{"page_p50_us", ph.Pages, 0.50, p50Window},
		{"page_p99_us", ph.Pages, 0.99, p99Window},
		{"op_p50_us", ph.Ops, 0.50, p50Window},
		{"op_p99_us", ph.Ops, 0.99, p99Window},
	} {
		vals[m.name] = LayerValue{windowedQuantile(m.ss, m.q, m.minN), "us", int64(len(m.ss))}
	}
	return vals
}

// verdict reports the run's failures and the generator's lateness on
// stderr, and whether the run is valid and correct.
func (r *runner) verdict(g *Gen, ph *Phase) bool {
	_, failed, msgs := g.Counts()
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "e2ebench: FAIL", m)
	}
	first, second := lateness(append(append([]Sample(nil), ph.Pages...), ph.Ops...))
	fmt.Fprintf(os.Stderr, "e2ebench: generator lateness p99 %.0f us (first half) / %.0f us (second half), bound %.0f us\n",
		first, second, r.cfg.MaxLatenessUS)
	ok := failed == 0
	if first > r.cfg.MaxLatenessUS || second > r.cfg.MaxLatenessUS {
		fmt.Fprintln(os.Stderr, "e2ebench: INVALID run: generator lateness above its bound")
		ok = false
	}
	return ok
}

// lateness returns the p99 generator lateness in µs over the first and
// the second half of the timed samples (by due time).
func lateness(ss []Sample) (first, second float64) {
	sorted := append([]Sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Due < sorted[j].Due })
	half := func(part []Sample) float64 {
		var v []float64
		for _, s := range part {
			if s.Lateness >= 0 {
				v = append(v, float64(s.Lateness)/1e3)
			}
		}
		sort.Float64s(v)
		return quantile(v, 0.99)
	}
	return half(sorted[:len(sorted)/2]), half(sorted[len(sorted)/2:])
}

// Latency windows. A run's samples are split, in due order, into
// consecutive windows and each percentile is the median over windows
// of the window's percentile, so a short disturbance of the machine
// moves one window, not the result. A p99 window holds at least 1000
// samples, so that its p99 has ten samples beyond it; a p50 window at
// least 250.
const (
	p99Window = 1000
	p50Window = 250
)

// windowCount is how many windows of at least minN samples n fills
// (at least one).
func windowCount(n, minN int) int { return max(1, n/minN) }

// windowedQuantile is the median over windows of each window's
// q-quantile, in µs.
func windowedQuantile(ss []Sample, q float64, minN int) float64 {
	sorted := append([]Sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Due < sorted[j].Due })
	k := windowCount(len(sorted), minN)
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(latenciesUS(sorted[i*len(sorted)/k:(i+1)*len(sorted)/k]), q)
	}
	return median(qs)
}

// goodput is the median over the closed-loop phase's whole seconds of
// the responses per second that passed validation within limit.
func goodput(ss []Sample, d, limit time.Duration) float64 {
	secs := max(1, int(d/time.Second))
	per := make([]float64, secs)
	for _, s := range ss {
		if i := int(s.End / time.Second); i < secs && s.OK && s.Latency() <= limit {
			per[i]++
		}
	}
	return median(per)
}

// latenciesUS returns the sorted due-time latencies in µs.
func latenciesUS(ss []Sample) []float64 {
	v := make([]float64, 0, len(ss))
	for _, s := range ss {
		v = append(v, float64(s.Latency())/1e3)
	}
	sort.Float64s(v)
	return v
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
