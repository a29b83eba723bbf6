package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root describes this program: its
// workload names and metric names and units must match the tables here,
// and the README must document every metric.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end-to-end", b.EndToEnd, endToEnd}, {"per-layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(c.json), c.kind, len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", c.kind, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(string(readme), "`"+d.name+"`") {
			t.Errorf("README.md does not document %s", d.name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(string(readme), "`"+w.name+"`") {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}
