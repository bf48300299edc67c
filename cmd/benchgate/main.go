// Command benchgate is the CI benchmark-regression gate: it compares a
// fresh `go test -bench` run against the committed baseline
// (bench/baseline.txt) and fails when a gated benchmark — the training,
// serving and ingestion hot paths — regressed by more than the
// threshold.
//
// Both inputs are raw `go test -bench` output. Runs are expected to
// use -count N (CI uses 3); benchgate takes the per-benchmark median
// ns/op, which is robust to one noisy pass. A benchmark present in the
// baseline but missing from the current run fails the gate (losing
// coverage must be explicit); a new benchmark missing from the
// baseline passes with a note, prompting a baseline refresh.
//
// The training, end-to-end run and label-model fit benchmarks, which
// report allocations that repeat exactly from run to run, are gated a
// second time on their median allocs/op. The count is a function of
// the code, not of the runner, so that gate is tight
// (maxAllocsRegress): an allocation that creeps back into a hot loop
// fails it even when the runner is fast enough to hide the time.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -count 3 ./... | tee bench.txt
//	benchgate -baseline bench/baseline.txt -current bench.txt -out BENCH_$SHA.json
//
// The JSON report is uploaded as a CI artifact so regressions can be
// inspected without rerunning anything. Baselines are hardware-bound:
// regenerate bench/baseline.txt (same command, redirected) whenever the
// runner class changes or an intentional performance change lands.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkTrainParallel-8   	       3	 313640738 ns/op	 396 examples
//
// The -8 GOMAXPROCS suffix is stripped so baselines transfer between
// hosts with different core counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// allocsField matches the allocs/op column that b.ReportAllocs (or
// -benchmem) appends to a result line.
var allocsField = regexp.MustCompile(`\s([0-9.]+) allocs/op`)

// allocsGated selects the benchmarks whose allocs/op is gated, and
// maxAllocsRegress is the fraction by which their median may grow.
var allocsGated = regexp.MustCompile(`^Benchmark(Train|Run|Fit)`)

const maxAllocsRegress = 0.02

// parseBenchAllocs extracts every benchmark's ns/op samples and, for
// lines that carry one, its allocs/op samples, keyed by benchmark name.
func parseBenchAllocs(out string) (ns, allocs map[string][]float64) {
	ns, allocs = map[string][]float64{}, map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		ns[m[1]] = append(ns[m[1]], v)
		if a := allocsField.FindStringSubmatch(line); a != nil {
			if v, err := strconv.ParseFloat(a[1], 64); err == nil {
				allocs[m[1]] = append(allocs[m[1]], v)
			}
		}
	}
	return ns, allocs
}

// median returns the middle sample (mean of the middle two for even
// counts).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Result is one benchmark's comparison in the JSON report.
type Result struct {
	Name       string  `json:"name"`
	BaselineNs float64 `json:"baseline_ns"`
	CurrentNs  float64 `json:"current_ns"`
	// Ratio is current/baseline; >1 means slower.
	Ratio float64 `json:"ratio"`
	// Gated reports whether the benchmark counts against the gate.
	Gated bool `json:"gated"`
	// BaselineAllocs and CurrentAllocs are median allocs/op, set when
	// AllocsGated: the benchmark matches the allocation gate and the
	// baseline records its allocations.
	BaselineAllocs float64 `json:"baseline_allocs,omitempty"`
	CurrentAllocs  float64 `json:"current_allocs,omitempty"`
	AllocsGated    bool    `json:"allocs_gated,omitempty"`
	Pass           bool    `json:"pass"`
	Note           string  `json:"note,omitempty"`
}

// Report is the BENCH_<sha>.json artifact.
type Report struct {
	SHA        string  `json:"sha"`
	MaxRegress float64 `json:"max_regress"`
	Match      string  `json:"match"`
	// MaxAllocsRegress and AllocsMatch record the allocs/op gate.
	MaxAllocsRegress float64  `json:"max_allocs_regress"`
	AllocsMatch      string   `json:"allocs_match"`
	Pass             bool     `json:"pass"`
	Benchmarks       []Result `json:"benchmarks"`
}

// gate compares current medians against baseline medians and applies
// the regression threshold to benchmarks matching the gate pattern.
func gate(baseline, current map[string][]float64, match *regexp.Regexp, maxRegress float64) Report {
	rep := Report{MaxRegress: maxRegress, Match: match.String(), Pass: true}
	names := map[string]bool{}
	for n := range baseline {
		names[n] = true
	}
	for n := range current {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	for _, name := range ordered {
		r := Result{Name: name, Gated: match.MatchString(name), Pass: true}
		base, inBase := baseline[name]
		cur, inCur := current[name]
		switch {
		case inBase && inCur:
			r.BaselineNs = median(base)
			r.CurrentNs = median(cur)
			if r.BaselineNs > 0 {
				r.Ratio = r.CurrentNs / r.BaselineNs
			}
			if r.Gated && r.Ratio > 1+maxRegress {
				r.Pass = false
				r.Note = fmt.Sprintf("regressed %.1f%% (max %.0f%%)", (r.Ratio-1)*100, maxRegress*100)
			}
		case inBase:
			r.BaselineNs = median(base)
			if r.Gated {
				r.Pass = false
				r.Note = "gated benchmark missing from current run"
			} else {
				r.Note = "missing from current run"
			}
		default:
			r.CurrentNs = median(cur)
			r.Note = "not in baseline (refresh bench/baseline.txt)"
		}
		if !r.Pass {
			rep.Pass = false
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	return rep
}

// gateAllocs applies maxAllocsRegress to the benchmarks of rep that
// match allocsGated and whose baseline records allocations. A
// matched benchmark whose current run lost its allocs/op column fails,
// like a benchmark missing from the run.
func gateAllocs(rep *Report, baseline, current map[string][]float64) {
	rep.MaxAllocsRegress, rep.AllocsMatch = maxAllocsRegress, allocsGated.String()
	for i := range rep.Benchmarks {
		r := &rep.Benchmarks[i]
		base, ok := baseline[r.Name]
		// CurrentNs is 0 only for a benchmark absent from the current
		// run, which the time gate has already judged.
		if !ok || !allocsGated.MatchString(r.Name) || r.CurrentNs == 0 {
			continue
		}
		r.AllocsGated = true
		r.BaselineAllocs = median(base)
		cur, ok := current[r.Name]
		if !ok {
			r.Pass = false
			r.Note = strings.TrimSpace(r.Note + " allocs/op missing from current run")
		} else if r.CurrentAllocs = median(cur); r.CurrentAllocs > r.BaselineAllocs*(1+maxAllocsRegress) {
			r.Pass = false
			r.Note = strings.TrimSpace(fmt.Sprintf("%s allocs/op %.0f -> %.0f (max +%.0f%%)", r.Note, r.BaselineAllocs, r.CurrentAllocs, maxAllocsRegress*100))
		}
		if !r.Pass {
			rep.Pass = false
		}
	}
}

func run(baselinePath, currentPath, outPath, matchExpr, sha string, maxRegress float64) (Report, error) {
	match, err := regexp.Compile(matchExpr)
	if err != nil {
		return Report{}, fmt.Errorf("bad -match: %w", err)
	}
	baseRaw, err := os.ReadFile(baselinePath)
	if err != nil {
		return Report{}, err
	}
	curRaw, err := os.ReadFile(currentPath)
	if err != nil {
		return Report{}, err
	}
	baseline, baseAllocs := parseBenchAllocs(string(baseRaw))
	if len(baseline) == 0 {
		return Report{}, fmt.Errorf("no benchmark lines in baseline %s", baselinePath)
	}
	current, curAllocs := parseBenchAllocs(string(curRaw))
	if len(current) == 0 {
		return Report{}, fmt.Errorf("no benchmark lines in current run %s", currentPath)
	}
	rep := gate(baseline, current, match, maxRegress)
	gateAllocs(&rep, baseAllocs, curAllocs)
	rep.SHA = sha
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func main() {
	baselinePath := flag.String("baseline", "bench/baseline.txt", "committed baseline (`go test -bench` output)")
	currentPath := flag.String("current", "", "current run (`go test -bench` output)")
	outPath := flag.String("out", "", "write the JSON report here (the BENCH_<sha>.json artifact)")
	matchExpr := flag.String("match", `^Benchmark(Train|Serve|Ingest)`, "regexp selecting the gated benchmarks")
	maxRegress := flag.Float64("max-regress", 0.20, "fail when a gated benchmark's median ns/op grows by more than this fraction")
	sha := flag.String("sha", os.Getenv("GITHUB_SHA"), "commit SHA recorded in the report")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}

	rep, err := run(*baselinePath, *currentPath, *outPath, *matchExpr, *sha, *maxRegress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	for _, r := range rep.Benchmarks {
		if !r.Gated && r.Note == "" {
			continue // ungated and unremarkable: keep the log short
		}
		status := "ok"
		if !r.Pass {
			status = "FAIL"
		}
		fmt.Printf("%-45s %12.0f -> %12.0f ns/op  x%.3f  [%s] %s\n",
			r.Name, r.BaselineNs, r.CurrentNs, r.Ratio, status, r.Note)
		if r.AllocsGated {
			fmt.Printf("%-45s %12.0f -> %12.0f allocs/op\n", "", r.BaselineAllocs, r.CurrentAllocs)
		}
	}
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — gated benchmark regressed more than %.0f%% in time or %.0f%% in allocations\n", *maxRegress*100, maxAllocsRegress*100)
		os.Exit(1)
	}
	fmt.Println("benchgate: all gated benchmarks within threshold")
}
