package tokens

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// tokenizeRef is Tokenize as it was before it scanned by byte offset:
// it walks a []rune copy of text and builds each token from a rune
// slice. FuzzTokenizeMatchesReference holds the current Tokenize to
// its output.
func tokenizeRef(text string) []string {
	var out []string
	runes := []rune(text)
	n := len(runes)
	i := 0
	for i < n {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '@':
			start := i
			i++
			for i < n && (runes[i] == '.' || runes[i] == '_' || unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i])) {
				i++
			}
			tok := string(runes[start:i])
			// Trim a trailing '.' that is sentence punctuation, not a
			// qualifier separator.
			tok = strings.TrimRight(tok, ".")
			if tok != "@" {
				out = append(out, strings.ToUpper(tok[1:]))
				out[len(out)-1] = "@" + out[len(out)-1]
			}
		case unicode.IsLetter(r):
			start := i
			for i < n && (runes[i] == '_' || runes[i] == '\'' || unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i])) {
				i++
			}
			w := strings.Trim(string(runes[start:i]), "'")
			if w != "" {
				out = append(out, strings.ToLower(w))
			}
		case unicode.IsDigit(r):
			start := i
			for i < n && (unicode.IsDigit(runes[i]) || (runes[i] == '.' && i+1 < n && unicode.IsDigit(runes[i+1]))) {
				i++
			}
			out = append(out, string(runes[start:i]))
		default:
			i++ // punctuation
		}
	}
	return out
}

// FuzzTokenizeMatchesReference checks that Tokenize's byte-offset scan
// yields exactly the reference's tokens, on any input, valid UTF-8 or
// not.
func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"",
		"show me all patients with age @PATIENTS.AGE",
		"with age @patients.age today",
		"show @JOIN.",
		"@ @. @@x @_a.b_c.",
		"cost of 12.5 dollars, not 12. or .5 or 1.2.3",
		"3.14159 and 10.. and 7.x",
		"what's the patients' name ''quoted'' 'tis",
		"end with a dot. and another...",
		"Ünïcödé wörds: straße, ÇA, naïve café, Ωmega 𝔘𝔫𝔦",
		"ＡＢＣ１２３ and ١٢٣ digits",
		"tab\tsep\nnew line\u00a0nbsp",
		"bad utf8 \xff\xfe mid\xc3word",
		"length_of_stay > 3; patients, doctors",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, want := Tokenize(text), tokenizeRef(text)
		if !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, want)
		}
	})
}

// BenchmarkTokenize times Tokenize and its reference on a
// lemmatizer-sized question.
func BenchmarkTokenize(b *testing.B) {
	const q = "show me the name and age of all patients whose diagnosis is @PATIENTS.DIAGNOSIS and who stayed longer than 12.5 days"
	for _, impl := range []struct {
		name string
		fn   func(string) []string
	}{{"current", Tokenize}, {"reference", tokenizeRef}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.fn(q)
			}
		})
	}
}
