package pipeline_test

import (
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/patients"
	"repro/internal/pipeline"
)

// corpusSeed synthesizes a real slice of the patients training corpus
// and encodes it in the fuzz wire format (one pair per line,
// NL \t SQL), so the fuzzer starts from the shapes the dedup stage
// actually sees in production.
func corpusSeed(n int) string {
	params := generator.DefaultParams()
	params.SizeSlotFills = 2
	var b strings.Builder
	count := 0
	generator.New(patients.Schema(), params, 1).Stream(func(p generator.Pair) {
		if count >= n {
			return
		}
		count++
		b.WriteString(p.NL)
		b.WriteByte('\t')
		b.WriteString(p.SQL)
		b.WriteByte('\n')
	})
	return b.String()
}

// decodePairs parses the fuzz wire format back into pairs. Lines
// without a tab become NL-only pairs — the dedup key covers both
// fields, so they exercise the SQL-empty corner.
func decodePairs(input string) []pipeline.Pair {
	var pairs []pipeline.Pair
	for _, line := range strings.Split(input, "\n") {
		if line == "" {
			continue
		}
		nl, sql, _ := strings.Cut(line, "\t")
		pairs = append(pairs, pipeline.Pair{NL: nl, SQL: sql, Stage: "fuzz"})
	}
	return pairs
}

// FuzzPipelineDedup mirrors internal/sqlast's fuzz targets for the
// streaming substrate: for any input stream, the dedup stage must (1)
// keep exactly the first occurrence of every (NL, SQL) key in arrival
// order — byte-identical to a sequential reference dedup, and (2)
// count its drops.
// Run with `go test -fuzz=FuzzPipelineDedup ./internal/pipeline`; the
// seed corpus (including generated patients pairs) runs in every
// ordinary `go test`.
func FuzzPipelineDedup(f *testing.F) {
	f.Add("")
	f.Add("a\tSELECT 1\n")
	f.Add("a\tSELECT 1\na\tSELECT 1\nb\tSELECT 2\na\tSELECT 1\n")
	f.Add("no tab line\nno tab line\n\t\n\tleading tab\n")
	f.Add("x\ty\nx\ty2\nx2\ty\n") // same NL, different SQL: distinct keys
	f.Add(corpusSeed(40) + corpusSeed(40))

	f.Fuzz(func(t *testing.T, input string) {
		pairs := decodePairs(input)

		// Sequential reference: first occurrence wins, order preserved.
		seen := map[string]bool{}
		var ref []pipeline.Pair
		for _, p := range pairs {
			if seen[p.Key()] {
				continue
			}
			seen[p.Key()] = true
			ref = append(ref, p)
		}

		g := pipeline.New(pipeline.Source("src", func(emit func(pipeline.Pair)) {
			for _, p := range pairs {
				emit(p)
			}
		}), pipeline.Dedup())
		got := g.Collect()
		if len(got) != len(ref) {
			t.Fatalf("dedup kept %d pairs, reference kept %d", len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("pair %d = %+v, reference %+v", i, got[i], ref[i])
			}
		}
		stats := g.Stats()
		last := stats[len(stats)-1]
		if wantHits := int64(len(pairs) - len(ref)); last.Extra["dedup_hits"] != wantHits {
			t.Fatalf("dedup_hits = %d, want %d", last.Extra["dedup_hits"], wantHits)
		}
		if last.In != int64(len(pairs)) || last.Out != int64(len(ref)) {
			t.Fatalf("stats in/out = %d/%d, want %d/%d", last.In, last.Out, len(pairs), len(ref))
		}
	})
}
