package tokens

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasics(t *testing.T) {
	cases := map[string][]string{
		"Show me all patients!":         {"show", "me", "all", "patients"},
		"age is 80":                     {"age", "is", "80"},
		"cost of 12.5 dollars":          {"cost", "of", "12.5", "dollars"},
		"what's the name":               {"what's", "the", "name"},
		"  spaced   out  ":              {"spaced", "out"},
		"":                              nil,
		"length_of_stay > 3":            {"length_of_stay", "3"},
		"patients, doctors; and visits": {"patients", "doctors", "and", "visits"},
	}
	for in, want := range cases {
		got := Tokenize(in)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestTokenizePlaceholders(t *testing.T) {
	got := Tokenize("with age @patients.age today")
	want := []string{"with", "age", "@PATIENTS.AGE", "today"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// Sentence-final period after a placeholder is punctuation.
	got2 := Tokenize("show @JOIN.")
	if len(got2) != 2 || got2[1] != "@JOIN" {
		t.Fatalf("got %v", got2)
	}
	if !IsPlaceholder("@X") || IsPlaceholder("x") {
		t.Fatal("IsPlaceholder broken")
	}
}

func TestVocabSpecials(t *testing.T) {
	v := NewVocab()
	if v.ID(PadToken) != PadID || v.ID(BosToken) != BosID || v.ID(EosToken) != EosID ||
		v.ID(UnkToken) != UnkID || v.ID(SepToken) != SepID {
		t.Fatal("special token ids shifted")
	}
	if v.Size() != 5 {
		t.Fatalf("empty vocab size = %d", v.Size())
	}
}

func TestVocabAddLookup(t *testing.T) {
	v := NewVocab()
	id := v.Add("hello")
	if v.Add("hello") != id {
		t.Fatal("Add should be idempotent")
	}
	if v.ID("hello") != id || v.Word(id) != "hello" {
		t.Fatal("lookup broken")
	}
	if v.ID("missing") != UnkID {
		t.Fatal("unknown word should map to UNK")
	}
	if v.Word(99999) != UnkToken {
		t.Fatal("out-of-range id should be UNK token")
	}
	if !v.Has("hello") || v.Has("missing") {
		t.Fatal("Has broken")
	}
}

func TestEncodeDecode(t *testing.T) {
	v := NewVocab()
	for _, w := range []string{"show", "me", "patients"} {
		v.Add(w)
	}
	toks := []string{"show", "me", "unknownword", "patients"}
	var back []string
	for _, id := range v.Encode(toks) {
		back = append(back, v.Word(id))
	}
	want := []string{"show", "me", UnkToken, "patients"}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("roundtrip = %v", back)
	}
}

func TestBuildVocab(t *testing.T) {
	seqs := [][]string{
		{"a", "b", "a"},
		{"a", "c"},
	}
	v := BuildVocab(seqs, 1)
	// a (3), b (1), c (1) — a first, then b/c alphabetical.
	if v.Word(5) != "a" || v.Word(6) != "b" || v.Word(7) != "c" {
		t.Fatalf("order = %v", v.Words())
	}
	v2 := BuildVocab(seqs, 2)
	if v2.Has("b") || !v2.Has("a") {
		t.Fatal("minCount filter broken")
	}
}

// Property: known words roundtrip through Encode and Word.
func TestEncodeDecodeQuick(t *testing.T) {
	v := NewVocab()
	words := []string{"alpha", "beta", "gamma", "delta"}
	for _, w := range words {
		v.Add(w)
	}
	f := func(idx []uint8) bool {
		var toks []string
		for _, i := range idx {
			toks = append(toks, words[int(i)%len(words)])
		}
		for i, id := range v.Encode(toks) {
			if v.Word(id) != toks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: tokenization is idempotent on its own output.
func TestTokenizeIdempotentQuick(t *testing.T) {
	inputs := []string{
		"Show me all patients aged 80!",
		"what is the AVG cost of @VISITS.COST?",
		"name, diagnosis & length_of_stay",
	}
	f := func(i uint8) bool {
		toks := Tokenize(inputs[int(i)%len(inputs)])
		again := Tokenize(strings.Join(toks, " "))
		return reflect.DeepEqual(toks, again)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
