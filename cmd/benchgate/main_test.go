package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

const sampleRun = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTrainSequential    	       1	 300000000 ns/op	       396.0 examples	       152.7 ms/epoch
BenchmarkTrainSequential    	       1	 310000000 ns/op	       396.0 examples	       153.0 ms/epoch
BenchmarkTrainSequential    	       1	 290000000 ns/op	       396.0 examples	       151.0 ms/epoch
BenchmarkTrainParallel-8    	       1	 100000000 ns/op
BenchmarkServeIngestPublish 	       2	 250000000 ns/op
BenchmarkTokenize           	  500000	      2100 ns/op
PASS
ok  	repro	2.9s
`

func TestParseBenchMediansAndSuffixStripping(t *testing.T) {
	samples, _ := parseBenchAllocs(sampleRun)
	if got := len(samples["BenchmarkTrainSequential"]); got != 3 {
		t.Fatalf("TrainSequential samples = %d", got)
	}
	if median(samples["BenchmarkTrainSequential"]) != 300000000 {
		t.Fatalf("median = %v", median(samples["BenchmarkTrainSequential"]))
	}
	// -8 GOMAXPROCS suffix must be stripped.
	if _, ok := samples["BenchmarkTrainParallel"]; !ok {
		t.Fatalf("suffix not stripped: %v", samples)
	}
	if _, ok := samples["BenchmarkTokenize"]; !ok {
		t.Fatal("high-count line not parsed")
	}
}

func TestGateThreshold(t *testing.T) {
	match := regexp.MustCompile(`^Benchmark(Train|Serve|Ingest)`)
	baseline := map[string][]float64{
		"BenchmarkTrainSequential": {100},
		"BenchmarkServeRead":       {100},
		"BenchmarkTokenize":        {100},
	}

	// 19% slower on a gated benchmark: passes.
	rep := gate(baseline, map[string][]float64{
		"BenchmarkTrainSequential": {119},
		"BenchmarkServeRead":       {100},
		"BenchmarkTokenize":        {100},
	}, match, 0.20)
	if !rep.Pass {
		t.Fatalf("19%% regression must pass: %+v", rep)
	}

	// 21% slower on a gated benchmark: fails.
	rep = gate(baseline, map[string][]float64{
		"BenchmarkTrainSequential": {121},
		"BenchmarkServeRead":       {100},
		"BenchmarkTokenize":        {100},
	}, match, 0.20)
	if rep.Pass {
		t.Fatal("21% regression must fail")
	}

	// Arbitrarily slower on an ungated benchmark: passes.
	rep = gate(baseline, map[string][]float64{
		"BenchmarkTrainSequential": {100},
		"BenchmarkServeRead":       {100},
		"BenchmarkTokenize":        {900},
	}, match, 0.20)
	if !rep.Pass {
		t.Fatalf("ungated regression must pass: %+v", rep)
	}
}

func TestGateMissingBenchmarks(t *testing.T) {
	match := regexp.MustCompile(`^BenchmarkTrain`)
	baseline := map[string][]float64{
		"BenchmarkTrainSequential": {100},
		"BenchmarkTokenize":        {100},
	}

	// A gated benchmark vanishing from the current run fails.
	rep := gate(baseline, map[string][]float64{"BenchmarkTokenize": {100}}, match, 0.20)
	if rep.Pass {
		t.Fatal("missing gated benchmark must fail")
	}

	// A new benchmark without a baseline passes with a note.
	rep = gate(baseline, map[string][]float64{
		"BenchmarkTrainSequential": {100},
		"BenchmarkTrainParallel":   {50},
		"BenchmarkTokenize":        {100},
	}, match, 0.20)
	if !rep.Pass {
		t.Fatalf("new benchmark must pass: %+v", rep)
	}
	for _, r := range rep.Benchmarks {
		if r.Name == "BenchmarkTrainParallel" && r.Note == "" {
			t.Fatal("new benchmark should carry a refresh note")
		}
	}
}

// TestBaselineGatesFilteredRead pins the repo's checked-in baseline:
// the storage-engine read and ingest benchmarks (the disk filtered
// read and the columnar engine's filtered read and ingest rows) must
// be present with full sample sets, fall under the default gate regex
// (Serve/Ingest prefixes), and actually gate — a run that loses one
// fails, and multi-metric output lines (legacy_ns/op, disk_ns/op,
// speedup_x) parse to the primary ns/op number.
func TestBaselineGatesFilteredRead(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "baseline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	baseline, _ := parseBenchAllocs(string(raw))
	match := regexp.MustCompile(`^Benchmark(Train|Serve|Ingest)`)
	names := []string{
		"BenchmarkServeKBFilteredRead",
		"BenchmarkServeKBFilteredReadColumnar",
		"BenchmarkIngestColumnar",
	}
	for _, name := range names {
		samples, ok := baseline[name]
		if !ok {
			t.Fatalf("%s missing from bench/baseline.txt", name)
		}
		if len(samples) != 3 {
			t.Fatalf("%s has %d samples, want 3", name, len(samples))
		}
		if med := median(samples); med <= 0 || med > 1e9 {
			t.Fatalf("%s median ns/op %v not parsed from the multi-metric line", name, med)
		}
		if !match.MatchString(name) {
			t.Fatalf("%s escapes the default gate regex", name)
		}
	}

	// Self-comparison passes and marks every benchmark gated.
	rep := gate(baseline, baseline, match, 0.20)
	if !rep.Pass {
		t.Fatalf("baseline self-comparison must pass: %+v", rep)
	}
	for _, name := range names {
		gated := false
		for _, r := range rep.Benchmarks {
			if r.Name == name {
				gated = r.Gated
			}
		}
		if !gated {
			t.Fatalf("%s is not gated by the default regex", name)
		}

		// Dropping it from a run fails the gate.
		current := map[string][]float64{}
		for k, v := range baseline {
			if k != name {
				current[k] = v
			}
		}
		if rep := gate(baseline, current, match, 0.20); rep.Pass {
			t.Fatalf("a run missing %s must fail the gate", name)
		}
	}
}

func TestRunEndToEndJSONArtifact(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.txt")
	cur := filepath.Join(dir, "current.txt")
	out := filepath.Join(dir, "BENCH_test.json")
	if err := os.WriteFile(base, []byte(sampleRun), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, []byte(sampleRun), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := run(base, cur, out, `^Benchmark(Train|Serve|Ingest)`, "deadbeef", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.SHA != "deadbeef" {
		t.Fatalf("self-comparison must pass: %+v", rep)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"sha": "deadbeef"`, `"BenchmarkTrainSequential"`, `"gated": true`} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).Match(data) {
			t.Fatalf("artifact missing %q:\n%s", want, data)
		}
	}
	if _, err := run(base, filepath.Join(dir, "nope.txt"), "", `.`, "", 0.2); err == nil {
		t.Fatal("missing current file must error")
	}
	if _, err := run(base, cur, "", `(`, "", 0.2); err == nil {
		t.Fatal("bad regexp must error")
	}
}

const allocsRun = `BenchmarkTrainSequential-2   	       1	 176075710 ns/op	       396.0 examples	        87.09 ms/epoch	 5920616 B/op	   11333 allocs/op
BenchmarkTrainSequential-2   	       1	 176692004 ns/op	       396.0 examples	        85.98 ms/epoch	 5920568 B/op	   11334 allocs/op
BenchmarkRunSequential-2     	       1	 433071662 ns/op	         0.9600 F1	21464368 B/op	  102406 allocs/op
BenchmarkTokenize            	  500000	      2100 ns/op	     512 B/op	       9 allocs/op
`

func TestParseBenchAllocs(t *testing.T) {
	ns, allocs := parseBenchAllocs(allocsRun + sampleRun)
	if got := allocs["BenchmarkTrainSequential"]; len(got) != 2 || got[0] != 11333 || got[1] != 11334 {
		t.Fatalf("TrainSequential allocs = %v", got)
	}
	if got := allocs["BenchmarkRunSequential"]; len(got) != 1 || got[0] != 102406 {
		t.Fatalf("RunSequential allocs = %v", got)
	}
	// Lines without an allocs/op column add ns/op samples only.
	if len(ns["BenchmarkTrainSequential"]) != 5 || len(allocs["BenchmarkTrainParallel"]) != 0 {
		t.Fatalf("ns = %v, allocs = %v", ns, allocs)
	}
}

func TestGateAllocs(t *testing.T) {
	baseNs := map[string][]float64{"BenchmarkTrainSequential": {100}, "BenchmarkRunSequential": {100}, "BenchmarkTokenize": {100}}
	baseAllocs := map[string][]float64{"BenchmarkTrainSequential": {1000}, "BenchmarkTokenize": {9}}
	check := func(curAllocs map[string][]float64) Report {
		rep := gate(baseNs, baseNs, regexp.MustCompile(`^BenchmarkTrain`), 0.20)
		gateAllocs(&rep, baseAllocs, curAllocs)
		return rep
	}

	// Within 2%, and an ungated benchmark allocating far more: passes.
	rep := check(map[string][]float64{"BenchmarkTrainSequential": {1015}, "BenchmarkTokenize": {900}})
	if !rep.Pass {
		t.Fatalf("1.5%% allocation growth must pass: %+v", rep)
	}
	for _, r := range rep.Benchmarks {
		// RunSequential has no allocs/op in the baseline: not gated.
		if want := r.Name == "BenchmarkTrainSequential"; r.AllocsGated != want {
			t.Fatalf("%s: AllocsGated = %v, want %v", r.Name, r.AllocsGated, want)
		}
	}

	// Beyond 2% fails, even with time unchanged.
	if rep := check(map[string][]float64{"BenchmarkTrainSequential": {1021}}); rep.Pass {
		t.Fatal("2.1% allocation growth must fail")
	}

	// A gated benchmark that stopped reporting allocations fails.
	if rep := check(map[string][]float64{}); rep.Pass {
		t.Fatal("missing allocs/op must fail")
	}
}

// TestBaselineGatesTrainingAllocs pins the checked-in baseline's
// allocation rows: every allocs-gated benchmark carries allocs/op in
// all three samples, so the gate cannot silently lapse.
func TestBaselineGatesTrainingAllocs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "baseline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, allocs := parseBenchAllocs(string(raw))
	for _, name := range []string{"BenchmarkTrainSequential", "BenchmarkTrainParallel", "BenchmarkRunSequential", "BenchmarkRunParallel", "BenchmarkFit"} {
		if !allocsGated.MatchString(name) {
			t.Fatalf("%s escapes the allocation gate", name)
		}
		if got := len(allocs[name]); got != 3 {
			t.Fatalf("%s has %d allocs/op samples in bench/baseline.txt, want 3", name, got)
		}
	}
}
