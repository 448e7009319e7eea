package ppdb

import (
	"testing"
	"testing/quick"
)

func TestLookupQualityOrder(t *testing.T) {
	es := Lookup("show")
	if len(es) < 3 {
		t.Fatalf("show should have several paraphrases, got %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Quality > es[i-1].Quality {
			t.Fatalf("entries not sorted by quality: %v", es)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	if len(Lookup("SHOW")) == 0 {
		t.Fatal("lookup should be case-insensitive")
	}
	if Lookup("zzzz-not-in-db") != nil {
		t.Fatal("unknown phrase should return nil")
	}
}

func TestBigramKeys(t *testing.T) {
	if len(Lookup("greater than")) == 0 {
		t.Fatal("bigram keys must be supported")
	}
}

func TestParaphrasesLimits(t *testing.T) {
	all := Paraphrases("show", 100, 0)
	if len(all) < 3 {
		t.Fatalf("show paraphrases = %v", all)
	}
	two := Paraphrases("show", 2, 0)
	if len(two) != 2 || two[0] != all[0] || two[1] != all[1] {
		t.Fatalf("max limit broken: %v", two)
	}
	// High quality threshold filters the noisy tail.
	clean := Paraphrases("show", 100, 0.5)
	for _, p := range clean {
		found := false
		for _, e := range Lookup("show") {
			if e.Paraphrase == p && e.Quality > 0.5 {
				found = true
			}
		}
		if !found {
			t.Fatalf("paraphrase %q leaked through the quality filter", p)
		}
	}
	if len(clean) >= len(all) {
		t.Fatal("quality filter should remove the noisy entries of 'show'")
	}
}

// The paper's trade-off requires the database to contain deliberately
// noisy entries: aggressive settings must be able to pull in
// meaning-distorting paraphrases.
func TestNoisyTailExists(t *testing.T) {
	noisy := 0
	for _, key := range []string{"mean", "player", "price", "order", "show", "find"} {
		for _, e := range Lookup(key) {
			if e.Quality <= 0.5 {
				noisy++
			}
		}
	}
	if noisy < 5 {
		t.Fatalf("expected a noisy tail across common words, found %d entries", noisy)
	}
}

func TestSynonymDerivedEntries(t *testing.T) {
	// Entries derived from the lexicon's synonym dictionary must exist
	// in both directions.
	found := func(key, para string) bool {
		for _, e := range Lookup(key) {
			if e.Paraphrase == para {
				return true
			}
		}
		return false
	}
	if !found("doctor", "physician") || !found("physician", "doctor") {
		t.Fatal("synonym-derived entries missing")
	}
}

func TestSizeReasonable(t *testing.T) {
	if len(table) < 100 {
		t.Fatalf("paraphrase table too small: %d keys", len(table))
	}
}

// Property: Paraphrases never returns more than max and never includes
// the query phrase itself.
func TestParaphrasesQuick(t *testing.T) {
	keys := []string{"show", "list", "average", "greater than", "patient", "city"}
	f := func(i, m uint8) bool {
		key := keys[int(i)%len(keys)]
		max := int(m)%5 + 1
		out := Paraphrases(key, max, 0)
		if len(out) > max {
			return false
		}
		for _, p := range out {
			if p == key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
