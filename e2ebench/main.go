// Command e2ebench is the end-to-end request ledger: it starts the real
// stack (edge surrogate, controller, bean cache, framed wire, two
// containers, a durable paging rdb) in a server process on loopback
// TCP, drives it from this process over at most nproc connections, and
// prints the validated end-to-end metrics — or, with --trace 1, the
// per-layer metrics of a separately traced run.
//
//	go run . --workload member-hot --seed 1 --seconds 20 --trace 0
//
// See README.md for the metrics, the workloads and the layers.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workDir holds everything the benchmark writes: corpus templates, the
// per-run data copies and the traced run's reports.
const workDir = ".bench_build/e2ebench"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		lowerPriority()
		if err := runServer(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

// Options are the command-line flags.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o Options
	var trace int
	fs.StringVar(&o.Workload, "workload", wMemberHot, "member-hot, long-tail or anon-write")
	fs.Int64Var(&o.Seed, "seed", 1, "seed of the corpus and the request streams")
	fs.IntVar(&o.Seconds, "seconds", 20, "measured seconds, split into the workload's phases")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.Trace = trace == 1
	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// Metric is one value of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func bench(o Options) (*Result, error) {
	cfg, err := loadConfig()
	if err != nil {
		return nil, err
	}
	wc, ok := cfg.Workloads[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds < 1 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	corpus := GenerateCorpus(cfg.Corpus, o.Seed)
	tpl, err := ensureTemplate(cfg, o.Seed, corpus)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, wc: wc, o: o, corpus: corpus, checker: newChecker(corpus), tpl: tpl,
		conns: max(2, runtime.NumCPU())}
	if o.Trace {
		return r.traced()
	}
	return r.untraced()
}

// ensureTemplate builds the seed's corpus into a template data
// directory once and checks it is larger than the buffer pool.
func ensureTemplate(cfg *Config, seed int64, c *Corpus) (string, error) {
	h := sha256.Sum256(configJSON)
	dir := filepath.Join(workDir, "corpus", fmt.Sprintf("%s-%d", hex.EncodeToString(h[:6]), seed))
	if _, err := os.Stat(filepath.Join(dir, "pages.db")); err != nil {
		tmp := dir + ".tmp"
		os.RemoveAll(tmp)
		if err := buildTemplate(tmp, cfg.Corpus, seed, c); err != nil {
			return "", fmt.Errorf("build corpus: %w", err)
		}
		if err := os.Rename(tmp, dir); err != nil {
			return "", err
		}
		pruneTemplates(filepath.Dir(dir), 8)
	}
	fi, err := os.Stat(filepath.Join(dir, "pages.db"))
	if err != nil {
		return "", err
	}
	if pool := int64(cfg.PoolPages) * 4096; fi.Size() < 4*pool {
		return "", fmt.Errorf("corpus page file %d B is under 4x the %d B pool budget", fi.Size(), pool)
	}
	return dir, nil
}

// pruneTemplates keeps the newest keep templates.
func pruneTemplates(dir string, keep int) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type ent struct {
		path string
		mod  time.Time
	}
	var es []ent
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && e.IsDir() {
			es = append(es, ent{filepath.Join(dir, e.Name()), fi.ModTime()})
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].mod.After(es[j].mod) })
	for i := keep; i < len(es); i++ {
		os.RemoveAll(es[i].path)
	}
}
