package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"webmlgo"
	"webmlgo/internal/cache"
	"webmlgo/internal/codegen"
	"webmlgo/internal/ejb"
	"webmlgo/internal/fixture"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
	"webmlgo/internal/rdb"
)

// The server process: the real stack on loopback TCP. It receives a
// data directory (a fresh copy of the corpus) and nothing else about
// the workload. It prints one READY line with its two addresses — the
// application and a control listener for counter snapshots — and runs
// until its standard input closes.

// ServerStats is one snapshot of the public counters of every layer.
type ServerStats struct {
	DB             rdb.DBStats      `json:"db"`
	Engine         rdb.EngineStats  `json:"engine"`
	FramesSent     int64            `json:"frames_sent"`
	FramesRecv     int64            `json:"frames_recv"`
	Bean           cache.Stats      `json:"bean"`
	EdgeHit        int64            `json:"edge_hit"`
	EdgeStale      int64            `json:"edge_stale"`
	EdgeMiss       int64            `json:"edge_miss"`
	AdmitAdmitted  int64            `json:"admit_admitted"`
	AdmitShed      int64            `json:"admit_shed"`
	AdmitSojourn   obs.HistSnapshot `json:"admit_sojourn"`
	ContainerQueue obs.HistSnapshot `json:"container_queue"`
	ContainerCalls int64            `json:"container_calls"`
	// Go runtime (runtime/metrics).
	GCCPUSeconds    float64 `json:"gc_cpu_s"`
	TotalCPUSeconds float64 `json:"total_cpu_s"`
	AllocBytes      uint64  `json:"alloc_bytes"`
	HeapLiveBytes   uint64  `json:"heap_live_bytes"`
	Goroutines      uint64  `json:"goroutines"`
}

type server struct {
	db         *rdb.DB
	app        *webmlgo.App
	containers []*ejb.Container
	tracer     *Tracer
}

func runServer(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dataDir := fs.String("data", "", "durable data directory")
	traced := fs.Bool("trace", false, "record spans through the seam wrappers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	s, err := startStack(cfg, *dataDir, *traced)
	if err != nil {
		return err
	}
	defer s.close()

	var handler http.Handler = s.app.Handler()
	if s.tracer != nil {
		handler = s.tracer.Handler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln) //nolint:errcheck // ends with Close below
	defer srv.Close()

	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctl := &http.Server{Handler: s.controlMux()}
	go ctl.Serve(cln) //nolint:errcheck // ends with Close below
	defer ctl.Close()

	fmt.Printf("READY %s %s\n", ln.Addr(), cln.Addr())
	// The parent holds our stdin; EOF means the run is over (or the
	// parent died), either way shut down.
	io.Copy(io.Discard, os.Stdin) //nolint:errcheck // any end of stdin stops the server
	return nil
}

func startStack(cfg *Config, dataDir string, traced bool) (*server, error) {
	s := &server{}
	if traced {
		s.tracer = newTracer()
	}
	db, err := rdb.OpenDurableOpts(dataDir, rdb.DurableOptions{
		CheckpointBytes: cfg.CheckpointBytes,
		PoolPages:       cfg.PoolPages,
		ResidentRows:    cfg.ResidentRows,
	})
	if err != nil {
		return nil, fmt.Errorf("open data tier: %w", err)
	}
	s.db = db
	if s.tracer != nil {
		db.SetTraceHooks(s.tracer.Hooks())
		db.SetFaultObserver(s.tracer.Fault)
	}
	model := fixture.Figure1Model()
	gen, err := codegen.New(model)
	if err != nil {
		s.close()
		return nil, err
	}
	art, err := gen.Generate()
	if err != nil {
		s.close()
		return nil, err
	}
	var addrs []string
	for i := 0; i < cfg.Containers; i++ {
		var business mvc.Business = mvc.NewLocalBusiness(db)
		if s.tracer != nil {
			business = &tracedBusiness{t: s.tracer, inner: business, name: aggInvoke, agg: true}
		}
		ctr := ejb.NewContainer(business, cfg.ContainerCapacity)
		ctr.DeployPages(&mvc.PageService{Repo: art.Repo, Business: business})
		addr, err := ctr.Serve("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.containers = append(s.containers, ctr)
		addrs = append(addrs, addr)
	}
	ttl := time.Duration(cfg.EdgeTTLSeconds) * time.Second
	app, err := webmlgo.New(model,
		webmlgo.WithDatabase(db),
		webmlgo.WithAppServer(addrs...),
		webmlgo.WithWireProtocol(ejb.WireFramed),
		webmlgo.WithBeanCache(cfg.BeanCache),
		webmlgo.WithEdgeCache(cfg.EdgeCache, ttl),
		webmlgo.WithAdmission(runtime.NumCPU(), 0),
		webmlgo.WithPageWorkers(runtime.NumCPU()),
		webmlgo.WithCompiledStyle(webmlgo.B2CStyle()))
	if err != nil {
		s.close()
		return nil, err
	}
	s.app = app
	if s.tracer != nil {
		s.instrument()
	}
	return s, nil
}

// instrument puts the span wrappers on the web node's public seams.
func (s *server) instrument() {
	t, app := s.tracer, s.app
	ctl := app.Controller
	app.Edge.Origin = t.Origin(app.Edge.Origin)
	ctl.Renderer = &tracedRenderer{t: t, inner: ctl.Renderer.(Renderer)}
	// Below the bean cache: the remote stub. Above it: what the page
	// service and the operation path call.
	notify := app.Business.(*mvc.NotifyingBusiness)
	cached := notify.Inner.(*mvc.CachedBusiness)
	cached.Inner = &tracedBusiness{t: t, inner: cached.Inner, name: spanWire}
	// The page service and the operation path share this decorator.
	notify.Inner = &tracedBusiness{t: t, inner: cached, name: spanBean}
	ctl.Pages = &tracedPages{t: t, inner: ctl.Pages}
}

func (s *server) close() {
	if s.app != nil {
		s.app.Close()
	}
	for _, c := range s.containers {
		c.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
}

func (s *server) stats() ServerStats {
	st := ServerStats{DB: s.db.Stats(), Engine: s.db.EngineStats()}
	st.FramesSent, st.FramesRecv, _ = s.app.Remote.FrameStats()
	st.Bean = s.app.BeanCache.Stats()
	st.EdgeHit, st.EdgeStale, st.EdgeMiss = s.app.Edge.Dispositions()
	as := s.app.Admission.Stats()
	for _, c := range as.Classes {
		st.AdmitAdmitted += c.Admitted
		st.AdmitShed += c.Shed
	}
	for _, ser := range s.app.Admission.Sojourn.Snapshot() {
		st.AdmitSojourn = st.AdmitSojourn.Merge(ser.Hist)
	}
	for _, c := range s.containers {
		st.ContainerQueue = st.ContainerQueue.Merge(c.QueueLatency())
		st.ContainerCalls += c.Metrics().Served
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(samples)
	st.GCCPUSeconds = samples[0].Value.Float64()
	st.TotalCPUSeconds = samples[1].Value.Float64()
	st.AllocBytes = samples[2].Value.Uint64()
	st.HeapLiveBytes = samples[3].Value.Uint64()
	st.Goroutines = samples[4].Value.Uint64()
	return st
}

// controlMux serves the generator's out-of-band requests: counter
// snapshots, and (traced runs) the span dump of the phase just ended.
func (s *server) controlMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(s.stats()) //nolint:errcheck // the reader sees a short body
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		if s.tracer == nil {
			http.Error(w, "untraced server", http.StatusNotFound)
			return
		}
		agg, err := s.tracer.Dump(r.FormValue("out"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(agg) //nolint:errcheck // the reader sees a short body
	})
	return mux
}

// serverNice is the server process's scheduling niceness. Client and
// server share the machine's CPUs; at equal priority a busy server
// delays the generator's wake-ups, and that lateness would land in
// every latency measured from a due time. Niced, the server yields to
// the generator's short bursts, as if the client ran on a machine of
// its own. CPU time and the server's own work are unchanged.
const serverNice = 19

// lowerPriority nices every thread of this process. Threads created
// later inherit the niceness of the thread that creates them; a second
// pass catches any created during the first.
func lowerPriority() {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				syscall.Setpriority(syscall.PRIO_PROCESS, tid, serverNice) //nolint:errcheck // best effort
			}
		}
	}
}
