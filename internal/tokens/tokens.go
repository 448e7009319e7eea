// Package tokens provides the shared natural-language tokenizer and
// vocabulary machinery used by the training pipeline and the neural
// translators, plus the placeholder-token conventions (@TABLE.COL for
// anonymized constants, @JOIN for the join placeholder).
package tokens

import (
	"sort"
	"strings"
	"unicode"
)

// Special vocabulary tokens. Their ids are fixed by NewVocab.
const (
	PadToken = "<pad>"
	BosToken = "<bos>"
	EosToken = "<eos>"
	UnkToken = "<unk>"
	SepToken = "<sep>" // separates NL from schema tokens in model input
)

// Fixed ids of the special tokens.
const (
	PadID = 0
	BosID = 1
	EosID = 2
	UnkID = 3
	SepID = 4
)

// IsPlaceholder reports whether the token is an anonymized-constant or
// join placeholder (leading '@').
func IsPlaceholder(tok string) bool {
	return strings.HasPrefix(tok, "@")
}

// Tokenize splits natural-language text into lower-case word tokens.
// Placeholders (@TABLE.COL) survive as single tokens with their case
// preserved (placeholder names are canonically upper-case); other
// punctuation separates tokens and is dropped, except that numbers stay
// intact (including decimals).
func Tokenize(text string) []string {
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

// Vocab is a bidirectional token-id mapping with the five special
// tokens preinstalled at fixed ids.
type Vocab struct {
	ids   map[string]int
	words []string
}

// NewVocab returns a vocabulary containing only the special tokens.
func NewVocab() *Vocab {
	v := &Vocab{ids: map[string]int{}}
	for _, t := range []string{PadToken, BosToken, EosToken, UnkToken, SepToken} {
		v.Add(t)
	}
	return v
}

// Add inserts the token if absent and returns its id.
func (v *Vocab) Add(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	id := len(v.words)
	v.ids[tok] = id
	v.words = append(v.words, tok)
	return id
}

// ID returns the token's id, or UnkID for unknown tokens.
func (v *Vocab) ID(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	return UnkID
}

// Has reports whether the token is in the vocabulary.
func (v *Vocab) Has(tok string) bool {
	_, ok := v.ids[tok]
	return ok
}

// Word returns the token for an id (UnkToken for out-of-range ids).
func (v *Vocab) Word(id int) string {
	if id < 0 || id >= len(v.words) {
		return UnkToken
	}
	return v.words[id]
}

// Size is the number of tokens, including specials.
func (v *Vocab) Size() int { return len(v.words) }

// Encode maps tokens to ids (unknowns become UnkID).
func (v *Vocab) Encode(toks []string) []int {
	out := make([]int, len(toks))
	for i, t := range toks {
		out[i] = v.ID(t)
	}
	return out
}

// Words returns a copy of the vocabulary in id order.
func (v *Vocab) Words() []string {
	return append([]string(nil), v.words...)
}

// BuildVocab constructs a vocabulary from token sequences, keeping
// tokens with at least minCount occurrences. Token insertion order is
// deterministic (by descending count, then lexicographic).
func BuildVocab(seqs [][]string, minCount int) *Vocab {
	counts := map[string]int{}
	for _, seq := range seqs {
		for _, t := range seq {
			counts[t]++
		}
	}
	type wc struct {
		w string
		c int
	}
	var list []wc
	for w, c := range counts {
		if c >= minCount {
			list = append(list, wc{w, c})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].c != list[j].c {
			return list[i].c > list[j].c
		}
		return list[i].w < list[j].w
	})
	v := NewVocab()
	for _, e := range list {
		v.Add(e.w)
	}
	return v
}
