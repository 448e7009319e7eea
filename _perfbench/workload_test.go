package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func planBytes(t *testing.T, sp spec, seed int64) []byte {
	t.Helper()
	tn, err := loadTenant(sp.schema)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(sp, tn, seed, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct{ Warm, Measured []request }{p.warm, p.measured})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPlanSeeded pins that the request lists are a function of the
// seed alone: the same seed rebuilds them byte for byte, another seed
// changes them.
func TestPlanSeeded(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, b := planBytes(t, sp, 5), planBytes(t, sp, 5)
			if !bytes.Equal(a, b) {
				t.Fatal("same seed built different request lists")
			}
			if bytes.Equal(a, planBytes(t, sp, 6)) {
				t.Fatal("seeds 5 and 6 built the same request list")
			}
		})
	}
}

// TestNovelKeysUnique pins that the novel workloads never send a
// question the server's result cache could already hold, and that
// every gold query executes.
func TestNovelKeysUnique(t *testing.T) {
	for _, sp := range specs {
		if sp.repeat {
			continue
		}
		t.Run(sp.name, func(t *testing.T) {
			tn, err := loadTenant(sp.schema)
			if err != nil {
				t.Fatal(err)
			}
			p, err := buildPlan(sp, tn, 3, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.warm) != 0 || len(p.measured) != int(2*sp.nominalRPS) {
				t.Fatalf("warm %d, measured %d; want 0 and %d", len(p.warm), len(p.measured), int(2*sp.nominalRPS))
			}
			seen := map[string]bool{}
			for _, r := range p.measured {
				if seen[r.Key] {
					t.Fatalf("cache key repeats: %q", r.Key)
				}
				seen[r.Key] = true
				if _, err := tn.goldAnswer(r.Gold); err != nil {
					t.Fatalf("gold %q: %v", r.Gold, err)
				}
			}
		})
	}
}

// TestRepeatCyclesBenchmark pins that ask-repeat sends only the 399
// Patients-benchmark questions, each once per cycle.
func TestRepeatCyclesBenchmark(t *testing.T) {
	sp, _ := specByName("ask-repeat")
	tn, err := loadTenant(sp.schema)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(sp, tn, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.warm) != 399 {
		t.Fatalf("warm pass has %d questions, want 399", len(p.warm))
	}
	count := map[string]int{}
	for _, r := range p.measured[:399] {
		count[r.NL]++
	}
	for _, r := range p.warm {
		if count[r.NL] != 1 {
			t.Fatalf("first cycle sends %q %d times", r.NL, count[r.NL])
		}
	}
}

// TestBenchmarkFileMatches pins that BENCHMARK.json declares exactly
// the metrics the harness reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}
