// Package postag is a rule-based English part-of-speech tagger for
// the query-domain vocabulary. The paper names POS tagging as the next
// augmentation refinement (§3.2.3: "use part-of-speech tags to apply
// the word removal only for certain classes of words"); this package
// provides that capability — closed-class word lists plus suffix
// heuristics, which is plenty for the short, formulaic NL questions
// the pipeline manipulates.
package postag

import (
	"strings"
	"unicode"
)

// Tag is a coarse part-of-speech class.
type Tag int

// Coarse tag set.
const (
	Noun Tag = iota
	Verb
	Adjective
	Adverb
	Determiner
	Preposition
	Pronoun
	Conjunction
	Number
	Wh
	Placeholder
	Other
)

// String names the tag.
func (t Tag) String() string {
	switch t {
	case Noun:
		return "NOUN"
	case Verb:
		return "VERB"
	case Adjective:
		return "ADJ"
	case Adverb:
		return "ADV"
	case Determiner:
		return "DET"
	case Preposition:
		return "PREP"
	case Pronoun:
		return "PRON"
	case Conjunction:
		return "CONJ"
	case Number:
		return "NUM"
	case Wh:
		return "WH"
	case Placeholder:
		return "PH"
	default:
		return "OTHER"
	}
}

// Closed-class word lists.
var (
	determiners  = wordSet("the a an this that these those each every all any some no both either neither its their his her my our your")
	prepositions = wordSet("of in on at by for with from to into under over between among through above below within without against per across during until upon")
	pronouns     = wordSet("i you he she it we they me him them us who whom whose one ones something anything everything")
	conjunctions = wordSet("and or but nor so yet as than if while because although")
	whWords      = wordSet("what which where when why how")
	auxVerbs     = wordSet("be is are am was were been being do does did done have has had having can could will would shall should may might must")
	commonVerbs  = wordSet("show list give find tell get return retrieve display present output count compute add sort order rank arrange group stay stayed stays suffer suffers suffered diagnose diagnosed treat treated exist exists exceed exceeds exceeded contain contains lie lies want see know need report fetch enumerate identify locate equal equals equaled belong belongs belonging")
	commonAdjs   = wordSet("average mean typical maximum minimum maximal minimal highest lowest largest smallest longest shortest oldest youngest biggest greatest least most common distinct different unique total combined overall male female old young long short large small high low big cheap expensive many few more less top bottom first last single")
	commonAdvs   = wordSet("not only also just ever never always exactly alphabetically descending ascending together apiece")
	commonNouns  = wordSet("number amount count value values range kind kinds distribution breakdown database hospital record records year years day days")
)

func wordSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, w := range strings.Fields(s) {
		out[w] = true
	}
	return out
}

// TagWord tags a single lower-case token.
func TagWord(w string) Tag {
	if w == "" {
		return Other
	}
	if strings.HasPrefix(w, "@") {
		return Placeholder
	}
	if unicode.IsDigit(rune(w[0])) {
		return Number
	}
	lw := strings.ToLower(w)
	switch {
	case determiners[lw]:
		return Determiner
	case prepositions[lw]:
		return Preposition
	case whWords[lw]:
		return Wh
	case pronouns[lw]:
		return Pronoun
	case conjunctions[lw]:
		return Conjunction
	case auxVerbs[lw], commonVerbs[lw]:
		return Verb
	case commonAdjs[lw]:
		return Adjective
	case commonAdvs[lw]:
		return Adverb
	case commonNouns[lw]:
		return Noun
	}
	// Suffix heuristics for open-class words.
	switch {
	case strings.HasSuffix(lw, "ly") && len(lw) > 3:
		return Adverb
	case strings.HasSuffix(lw, "ing") && len(lw) > 4,
		strings.HasSuffix(lw, "ed") && len(lw) > 3,
		strings.HasSuffix(lw, "ize") && len(lw) > 4:
		return Verb
	case strings.HasSuffix(lw, "est") && len(lw) > 4,
		strings.HasSuffix(lw, "ous") && len(lw) > 4,
		strings.HasSuffix(lw, "ful") && len(lw) > 4,
		strings.HasSuffix(lw, "ive") && len(lw) > 4,
		strings.HasSuffix(lw, "al") && len(lw) > 4:
		return Adjective
	default:
		return Noun // default open class
	}
}

// Droppable reports whether a word of this class can be removed
// without destroying the question's core semantics — the POS-guided
// word-removal policy of the paper's §3.2.3: function words
// (determiners, prepositions, pronouns, auxiliaries tagged as verbs
// only when auxiliary) and adverbs drop safely; content nouns,
// adjectives carrying aggregate semantics, numbers, and placeholders
// must stay.
func Droppable(w string, t Tag) bool {
	switch t {
	case Determiner, Preposition, Pronoun, Adverb:
		return true
	case Verb:
		return auxVerbs[strings.ToLower(w)] || commonVerbs[strings.ToLower(w)]
	default:
		return false
	}
}
