package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's server process:
// the runner spawns os.Executable() with "serve".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		lowerPriority()
		if err := runServer(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchSpec is the part of ../BENCHMARK.json the smoke test checks
// against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every metric BENCHMARK.json names is reported with its unit, and
// that the report files carry each metric with its sample count: more
// than zero on every workload that must exercise it, and a null value
// wherever there were none.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and drives them for several seconds")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2eDefs) || len(spec.PerLayer) != len(lineDefs) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(e2eDefs), len(lineDefs))
	}
	// The end-to-end metrics measured and reported alongside the
	// bounded ones, with the workloads that must exercise them.
	reported := []LayerDef{{Name: "page_p10_us"}, {Name: "page_p50_us"}, {Name: "page_p99_us"},
		{Name: "op_p50_us", On: onWrite}, {Name: "op_p99_us", On: onWrite},
		{Name: "goodput_rps"}, {Name: "error_rate"}}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			const seed = 7
			res, err := bench(Options{Workload: w, Seed: seed, Seconds: 4})
			if err != nil {
				t.Fatal(err)
			}
			e2e := readReport(t, fmt.Sprintf("%s-seed%d-e2e.json", w, seed))
			for _, d := range append(append([]LayerDef(nil), e2eDefs...), reported...) {
				checkSamples(t, w, e2e, d)
			}
			checkResult(t, res, spec.EndToEnd, e2eDefs, e2e)

			res, err = bench(Options{Workload: w, Seed: seed, Seconds: 4, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			layers := readReport(t, fmt.Sprintf("%s-seed%d.json", w, seed))
			for _, d := range layerDefs {
				checkSamples(t, w, layers, d)
			}
			checkResult(t, res, spec.PerLayer, lineDefs, layers)
		})
	}
}

// checkResult checks the result line: every metric of want with its
// unit and the report's value, which must not be null.
func checkResult(t *testing.T, res *Result, want []struct{ Name, Unit string }, defs []LayerDef, report map[string]reportValue) {
	t.Helper()
	if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
		t.Errorf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
	}
	for i, d := range want {
		if defs[i].Name != d.Name || defs[i].Unit != d.Unit {
			t.Errorf("BENCHMARK.json metric %d is %s (%s), the program's %s (%s)", i, d.Name, d.Unit, defs[i].Name, defs[i].Unit)
		}
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
		if rv := report[d.Name].Value; rv == nil || *rv != m.Value {
			t.Errorf("metric %s: result value %v, report value %v", d.Name, m.Value, rv)
		}
	}
}

// reportValue is a LayerValue as read back: Value is nil for null.
type reportValue struct {
	Value   *float64 `json:"value"`
	Unit    string   `json:"unit"`
	Samples int64    `json:"samples"`
}

// readReport returns the "metrics" or "layers" object of a report file.
func readReport(t *testing.T, name string) map[string]reportValue {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(workDir, "report", name))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics map[string]reportValue `json:"metrics"`
		Layers  map[string]reportValue `json:"layers"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Layers != nil {
		return doc.Layers
	}
	return doc.Metrics
}

// checkSamples checks one metric of workload w's report: present with
// its unit; with samples and a value when w must exercise it; null when
// it has no samples.
func checkSamples(t *testing.T, w string, vals map[string]reportValue, d LayerDef) {
	t.Helper()
	v, ok := vals[d.Name]
	switch {
	case !ok:
		t.Errorf("report lacks %s", d.Name)
	case v.Unit == "":
		t.Errorf("report: %s has no unit", d.Name)
	case (v.Samples > 0) != (v.Value != nil):
		t.Errorf("report: %s has %d samples and value %v", d.Name, v.Samples, v.Value)
	case v.Samples <= 0 && (d.On == nil || slices.Contains(d.On, w)):
		t.Errorf("report: %s has no samples on %s, which must exercise it", d.Name, w)
	}
}
