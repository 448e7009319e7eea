package lemma

import (
	"testing"
	"testing/quick"
)

func TestLemmatizeTable(t *testing.T) {
	cases := map[string]string{
		// be and auxiliaries (the paper's example).
		"is": "be", "are": "be", "am": "be", "was": "be", "were": "be",
		// possessives and plurals (the paper's "cars"/"car's" example).
		"cars": "car", "car's": "car", "car": "car",
		"cities": "city", "diagnoses": "diagnosis", "people": "person",
		"patients": "patient", "doctors": "doctor", "diseases": "disease",
		"names": "name", "nurses": "nurse", "classes": "class",
		"boxes": "box",
		// verbs.
		"stayed": "stay", "diagnosed": "diagnose", "treated": "treat",
		"stopped": "stop", "showed": "show", "equaled": "equal",
		"staying": "stay", "having": "have", "sorting": "sort",
		// comparatives/superlatives.
		"older": "old", "oldest": "old", "longest": "long",
		"highest": "high", "better": "good", "most": "many",
		// protected words.
		"this": "this", "his": "his", "always": "always", "during": "during",
		"something": "something", "status": "status", "series": "series",
		"hundred": "hundred", "need": "need",
		// short words unaffected.
		"age": "age", "name": "name", "stay": "stay", "be": "be",
	}
	for in, want := range cases {
		if got := Lemmatize(in); got != want {
			t.Errorf("Lemmatize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLemmatizePassThrough(t *testing.T) {
	for _, tok := range []string{"@PATIENTS.AGE", "@JOIN", "80", "12.5", ""} {
		if got := Lemmatize(tok); got != tok {
			t.Errorf("Lemmatize(%q) = %q, should pass through", tok, got)
		}
	}
}

func TestLemmatizeAll(t *testing.T) {
	got := LemmatizeAll([]string{"patients", "are", "staying"})
	want := []string{"patient", "be", "stay"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LemmatizeAll = %v", got)
		}
	}
}

// Property: lemmatization is idempotent for the domain vocabulary.
func TestLemmatizeIdempotentQuick(t *testing.T) {
	words := []string{
		"patients", "cities", "doctors", "staying", "diagnosed", "older",
		"highest", "was", "names", "showed", "people", "treated", "cars",
		"lengths", "averaged", "sorted", "grouped", "counting",
	}
	f := func(i uint8) bool {
		w := words[int(i)%len(words)]
		once := Lemmatize(w)
		twice := Lemmatize(once)
		return once == twice
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: lemmas are never longer than input plus one restored 'e'.
func TestLemmatizeLengthQuick(t *testing.T) {
	words := []string{"patients", "diagnosed", "cities", "was", "better", "showing"}
	f := func(i uint8) bool {
		w := words[int(i)%len(words)]
		return len(Lemmatize(w)) <= len(w)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
