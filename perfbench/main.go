// Command perfbench is the repository's end-to-end benchmark. It drives
// the program only through its public Go functions and its HTTP API,
// generates every input from -seed, checks that the outputs are
// correct, and prints one JSON result object as the last line of
// standard output.
//
// Three workloads (see README.md):
//
//	batch_kbc    the paper's batch run: parse 48 documents, core.Run
//	serve_mixed  one serving tenant: closed-loop /ingest beside open-loop reads
//	lf_dev       the labeling-function development loop over an evicting disk store
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of a separate traced run
// and writes the span tree to .bench_build/trace-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: its operation counts, the
// problems its output checks found, and its metrics.
type report struct {
	attempted, failed int
	problems          []string
	e2e               map[string]metric
	layers            map[string]metric
	// samples gives the sample count behind each e2e metric, for the
	// human-readable listing.
	samples map[string]int
	// alias names, per e2e metric, the workload-specific quantity it
	// measures on this workload (e.g. "ingest_p50_ms").
	alias map[string]string
	// extra lists workload-specific figures that are not gated
	// (ladder table, ingest p95, read p99, ...), printed before the
	// result line.
	extra []string
}

func newReport() *report {
	return &report{
		e2e:     map[string]metric{},
		layers:  map[string]metric{},
		samples: map[string]int{},
		alias:   map[string]string{},
	}
}

// setE2E records an end-to-end metric with its sample count and the
// workload-specific name it stands for.
func (r *report) setE2E(name string, v float64, unit string, n int, alias string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
	r.alias[name] = alias
}

func (r *report) setLayer(name string, v float64, unit string) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config, *tracer) (*report, error){
	"batch_kbc":   runBatch,
	"serve_mixed": runServe,
	"lf_dev":      runLFDev,
}

// engines records the storage engine each workload runs on.
var engines = map[string]string{
	"batch_kbc":   "none (store-less core.Run)",
	"serve_mixed": "columnar, no eviction",
	"lf_dev":      "disk, MaxResidentDocs 16 (reference: memory)",
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: batch_kbc, serve_mixed or lf_dev")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.workers = runtime.NumCPU()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	os.Exit(execute(cfg, run))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func execute(cfg config, run func(config, *tracer) (*report, error)) int {
	printEnv(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep, err := run(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", tr.len(), path)
		for _, line := range tr.selfTimeTable() {
			fmt.Println("trace:", line)
		}
	}
	for _, line := range rep.extra {
		fmt.Println(line)
	}
	want, got := e2eMetrics, rep.e2e
	if cfg.trace {
		want, got = layerMetrics, rep.layers
	}
	for _, m := range want {
		if v, ok := got[m.name]; !ok || v.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s [%s]\n", cfg.workload, m.name, m.unit)
			return 1
		}
	}
	for _, name := range sortedKeys(got) {
		m := got[name]
		if cfg.trace {
			fmt.Printf("layer %-34s %14.4f %s\n", name, m.Value, m.Unit)
		} else {
			fmt.Printf("metric %-14s %14.4f %-6s n=%-6d (%s)\n", name, m.Value, m.Unit, rep.samples[name], rep.alias[name])
		}
	}
	res := result{Correct: len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted, Failed: rep.failed, Metrics: got}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n", errRate, rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printEnv records the machine the numbers come from, so figures from
// different machines are never compared silently.
func printEnv(cfg config) {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"engine":     engines[cfg.workload],
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"start":      time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Println("env:", string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
