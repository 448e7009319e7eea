package spider_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/spider"
)

// TestGenerateSchemaSweep sweeps the seed space: every generated
// schema must pass full structural validation, be FK-connected (the
// augmenter's join templates and the data generator both assume it),
// populate a database, and yield a non-empty eval workload. The bands
// cover small seeds, a mid range, and large/negative seeds so a
// pool-indexing bug anywhere in the composer shows up.
func TestGenerateSchemaSweep(t *testing.T) {
	bands := []struct {
		name       string
		from, to   int64 // inclusive range
		checkEvery int64 // run the expensive data/workload checks every k-th seed
	}{
		{"small", 1, 64, 8},
		{"mid", 1000, 1063, 16},
		{"large", 1 << 40, 1<<40 + 31, 16},
		{"negative", -32, -1, 8},
	}
	for _, band := range bands {
		band := band
		t.Run(band.name, func(t *testing.T) {
			t.Parallel()
			for seed := band.from; seed <= band.to; seed++ {
				s := spider.GenerateSchema(seed)
				if err := s.Validate(); err != nil {
					t.Fatalf("seed %d: Validate: %v", seed, err)
				}
				if !s.Connected() {
					t.Fatalf("seed %d: schema %s not FK-connected", seed, s.Name)
				}
				if want := fmt.Sprintf("synth%d", seed); s.Name != want {
					t.Fatalf("seed %d: name = %q, want %q", seed, s.Name, want)
				}
				if n := len(s.Tables); n < 2 || n > 4 {
					t.Fatalf("seed %d: %d tables, want 2..4", seed, n)
				}
				if len(s.ForeignKeys) != len(s.Tables)-1 {
					t.Fatalf("seed %d: %d FKs for %d tables, want a spanning chain",
						seed, len(s.ForeignKeys), len(s.Tables))
				}
				if (seed-band.from)%band.checkEvery != 0 {
					continue
				}
				db, err := engine.GenerateData(s, 5, seed)
				if err != nil {
					t.Fatalf("seed %d: GenerateData: %v", seed, err)
				}
				if db == nil {
					t.Fatalf("seed %d: nil database", seed)
				}
				qs := spider.Workload(s, 8, seed+1)
				if len(qs) == 0 {
					t.Fatalf("seed %d: empty workload", seed)
				}
				for _, q := range qs {
					if q.NL == "" || q.SQL == "" {
						t.Fatalf("seed %d: workload question %+v incomplete", seed, q)
					}
				}
			}
		})
	}
}

// TestGenerateSchemaDeterministic: the generator is a pure function of
// its seed — the chaos suite's resume proof depends on re-onboarding
// reproducing the identical schema.
func TestGenerateSchemaDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99991} {
		a, b := spider.GenerateSchema(seed), spider.GenerateSchema(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestFleet: consecutive seeds give distinct tenants.
func TestFleet(t *testing.T) {
	var fleet []*schema.Schema
	for i := 0; i < 12; i++ {
		fleet = append(fleet, spider.GenerateSchema(100+int64(i)))
	}
	seen := map[string]bool{}
	for _, s := range fleet {
		if seen[s.Name] {
			t.Fatalf("duplicate fleet schema %s", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	if len(fleet) != 12 {
		t.Fatalf("fleet size %d", len(fleet))
	}
}
