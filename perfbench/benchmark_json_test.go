package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json names the metrics and workloads later changes are
// judged by; it must list exactly what the benchmark reports.
func TestBenchmarkJSONMatchesTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
