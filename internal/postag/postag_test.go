package postag

import (
	"testing"
	"testing/quick"
)

func TestTagWordTable(t *testing.T) {
	cases := map[string]Tag{
		"the": Determiner, "every": Determiner, "a": Determiner,
		"of": Preposition, "with": Preposition, "between": Preposition,
		"what": Wh, "how": Wh,
		"and": Conjunction, "or": Conjunction,
		"it": Pronoun, "who": Pronoun,
		"is": Verb, "show": Verb, "diagnosed": Verb, "staying": Verb,
		"average": Adjective, "oldest": Adjective, "distinct": Adjective,
		"quickly": Adverb, "not": Adverb,
		"80": Number, "12.5": Number,
		"@PATIENTS.AGE": Placeholder,
		"patient":       Noun, "diagnosis": Noun, "name": Noun,
		"number": Noun, "hospital": Noun,
	}
	for w, want := range cases {
		if got := TagWord(w); got != want {
			t.Errorf("TagWord(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestDroppablePolicy(t *testing.T) {
	droppable := []string{"the", "of", "is", "me", "show", "only"}
	for _, w := range droppable {
		if !Droppable(w, TagWord(w)) {
			t.Errorf("%q should be droppable", w)
		}
	}
	protected := []string{"patient", "age", "average", "80", "@PATIENTS.AGE", "maximum", "diagnosis"}
	for _, w := range protected {
		if Droppable(w, TagWord(w)) {
			t.Errorf("%q must not be droppable", w)
		}
	}
}

func TestTagWordTotalQuick(t *testing.T) {
	words := []string{"", "show", "the", "80", "@X", "zzzgibberish", "walking", "happily", "colorful"}
	f := func(i uint8) bool {
		tag := TagWord(words[int(i)%len(words)])
		return tag >= Noun && tag <= Other
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagStrings(t *testing.T) {
	want := map[Tag]string{
		Noun: "NOUN", Verb: "VERB", Adjective: "ADJ", Adverb: "ADV",
		Determiner: "DET", Preposition: "PREP", Pronoun: "PRON",
		Conjunction: "CONJ", Number: "NUM", Wh: "WH", Placeholder: "PH",
		Other: "OTHER",
	}
	for tag, name := range want {
		if tag.String() != name {
			t.Errorf("Tag(%d).String() = %q, want %q", tag, tag.String(), name)
		}
	}
}

func TestSuffixHeuristics(t *testing.T) {
	cases := map[string]Tag{
		"happily":   Adverb,
		"walking":   Verb,
		"computed":  Verb,
		"wonderful": Adjective,
		"famous":    Adjective,
		"creative":  Adjective,
	}
	for w, want := range cases {
		if got := TagWord(w); got != want {
			t.Errorf("TagWord(%q) = %v, want %v", w, got, want)
		}
	}
}
