package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json's metric lists in
// step with what the benchmark prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metric
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, w := range c.want {
			if g := c.got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %s %s %s", c.what, i, g, w.name, w.unit, w.better)
			}
		}
	}
}
