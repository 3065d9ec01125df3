package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json must declare exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json names %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	declared := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, fmt.Sprintf("%s %s %s", d.name, d.unit, d.better))
		}
		return out
	}
	var e2e, layer []string
	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, fmt.Sprintf("%s %s %s", m.Name, m.Unit, m.Better))
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound; got %+v", m)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, fmt.Sprintf("%s %s %s", m.Name, m.Unit, m.Better))
	}
	if want := declared(endToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nbenchmark:\n%v", e2e, want)
	}
	if want := declared(perLayer); !reflect.DeepEqual(layer, want) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nbenchmark:\n%v", layer, want)
	}
}
