// Package lemma implements the rule-based English lemmatizer used in
// both the training pipeline (last step of data generation) and the
// runtime pre-processor. Different surface forms of a word are mapped
// to a single root ("is"/"are"/"am" -> "be", "cars"/"car's" -> "car",
// "stayed" -> "stay") so that the model sees a normalized token stream
// on both sides.
//
// The paper uses an off-the-shelf lemmatizer; this package substitutes
// a deterministic irregular-form table plus conservative suffix rules,
// which provides the same normalization contract for the pipeline's
// vocabulary.
package lemma

import "strings"

// irregular maps irregular inflected forms to their lemma.
var irregular = map[string]string{
	// be / auxiliaries
	"am": "be", "is": "be", "are": "be", "was": "be", "were": "be",
	"been": "be", "being": "be", "'s": "be", "'re": "be", "'m": "be",
	"has": "have", "had": "have", "having": "have",
	"does": "do", "did": "do", "doing": "do", "done": "do",
	"goes": "go", "went": "go", "gone": "go",
	"says": "say", "said": "say",
	"makes": "make", "made": "make",
	"gets": "get", "got": "get", "gotten": "get",
	"gives": "give", "gave": "give", "given": "give",
	"shows": "show", "showed": "show", "shown": "show",
	"finds": "find", "found": "find",
	"tells": "tell", "told": "tell",
	"keeps": "keep", "kept": "keep",
	"holds": "hold", "held": "hold",
	"stands": "stand", "stood": "stand",
	"lies": "lie", "lay": "lie", "lain": "lie",
	"leaves": "leave", "left": "leave",
	"pays": "pay", "paid": "pay",
	"sees": "see", "saw": "see", "seen": "see",
	"takes": "take", "took": "take", "taken": "take",
	"comes": "come", "came": "come",
	"knows": "know", "knew": "know", "known": "know",
	"treats": "treat", "treated": "treat", "treating": "treat",
	// irregular noun plurals
	"people": "person", "children": "child", "men": "man", "women": "woman",
	"feet": "foot", "teeth": "tooth", "mice": "mouse", "geese": "goose",
	"data": "datum", "criteria": "criterion", "diagnoses": "diagnosis",
	"analyses": "analysis", "cities": "city", "countries": "country",
	"counties": "county", "facilities": "facility", "studies": "study",
	"bodies": "body", "parties": "party", "families": "family",
	"injuries": "injury", "surgeries": "surgery", "salaries": "salary",
	"stays": "stay",
	// comparative/superlative irregulars
	"better": "good", "best": "good", "worse": "bad", "worst": "bad",
	"more": "many", "most": "many", "less": "little", "least": "little",
	"older": "old", "oldest": "old", "younger": "young", "youngest": "young",
	"longer": "long", "longest": "long", "shorter": "short", "shortest": "short",
	"larger": "large", "largest": "large", "smaller": "small", "smallest": "small",
	"higher": "high", "highest": "high", "lower": "low", "lowest": "low",
	"bigger": "big", "biggest": "big", "cheaper": "cheap", "cheapest": "cheap",
	"heavier": "heavy", "heaviest": "heavy", "earlier": "early", "earliest": "early",
	"fewer": "few", "fewest": "few", "greater": "great", "greatest": "great",
}

// noStrip lists words whose apparent suffix must not be stripped.
var noStrip = map[string]bool{
	"this": true, "his": true, "its": true, "is": true, "as": true,
	"was": true, "has": true, "does": true, "yes": true, "us": true,
	"thus": true, "plus": true, "gas": true, "bus": true, "status": true,
	"always": true, "perhaps": true, "besides": true, "whereas": true,
	"series": true, "species": true, "news": true, "lens": true,
	"during": true, "thing": true, "king": true, "sing": true,
	"ring": true, "spring": true, "string": true, "nothing": true,
	"something": true, "anything": true, "everything": true, "morning": true,
	"evening": true, "being": true, "building": true, "wedding": true,
	"need": true, "deed": true, "feed": true, "speed": true, "seed": true,
	"breed": true, "exceed": true, "indeed": true, "bed": true, "red": true,
	"wed": true, "ted": true, "used": true, "led": true, "shed": true,
	"hundred": true, "united": true,
}

// keepES lists stems for which the -es suffix belongs to an e-final
// stem ("diseases" -> "disease"), tried before plain -es stripping.
var esToE = map[string]bool{
	"diseas": true, "nam": true, "nurs": true, "stat": true, "cas": true,
	"plac": true, "rat": true, "dat": true, "scor": true, "tim": true,
	"typ": true, "valu": true, "averag": true, "rang": true, "sourc": true,
	"servic": true, "procedur": true, "employe": true, "degre": true,
	"lin": true, "zon": true, "mil": true, "sit": true, "rol": true,
	"titl": true, "vehicl": true, "articl": true, "peopl": true,
	"languag": true, "colleg": true, "hous": true, "cours": true,
	"not": true, "offic": true, "practic": true, "charg": true,
	"wag": true, "prize": true, "siz": true, "ag": true,
}

// Lemmatize returns the lemma of a single lower-case word token.
// Placeholders (leading '@') and numbers pass through unchanged.
func Lemmatize(word string) string {
	if word == "" || word[0] == '@' || (word[0] >= '0' && word[0] <= '9') {
		return word
	}
	w := strings.ToLower(word)
	// Possessives: car's -> car.
	w = strings.TrimSuffix(w, "'s")
	w = strings.TrimSuffix(w, "'")
	if lemma, ok := irregular[w]; ok {
		return lemma
	}
	if noStrip[w] {
		return w
	}
	if len(w) >= 4 {
		switch {
		case strings.HasSuffix(w, "ies"):
			return w[:len(w)-3] + "y"
		case strings.HasSuffix(w, "sses"), strings.HasSuffix(w, "ches"), strings.HasSuffix(w, "shes"), strings.HasSuffix(w, "xes"), strings.HasSuffix(w, "zes"):
			return w[:len(w)-2]
		case strings.HasSuffix(w, "es"):
			stem := w[:len(w)-2]
			if esToE[stem] {
				return stem + "e"
			}
			return stem + "e" // default: names->name, stores->store
		case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us") && !strings.HasSuffix(w, "is"):
			return w[:len(w)-1]
		}
	}
	if len(w) >= 5 {
		switch {
		case strings.HasSuffix(w, "ied"):
			return w[:len(w)-3] + "y"
		case strings.HasSuffix(w, "ed"):
			stem := w[:len(w)-2]
			// doubled consonant: "stopped" -> "stop"
			if len(stem) >= 3 && stem[len(stem)-1] == stem[len(stem)-2] && !isVowel(stem[len(stem)-1]) {
				return stem[:len(stem)-1]
			}
			// e-final stems: "diagnosed" -> "diagnose"
			if needsE(stem) {
				return stem + "e"
			}
			return stem
		case strings.HasSuffix(w, "ing"):
			stem := w[:len(w)-3]
			if len(stem) < 2 {
				return w
			}
			if len(stem) >= 3 && stem[len(stem)-1] == stem[len(stem)-2] && !isVowel(stem[len(stem)-1]) {
				return stem[:len(stem)-1]
			}
			if needsE(stem) {
				return stem + "e"
			}
			return stem
		}
	}
	return w
}

// needsE guesses whether a stripped stem needs a restored final 'e'
// ("diagnos" -> "diagnose", "stor" -> "store"). Heuristic: consonant +
// single vowel + consonant(s) ending in s/v/z/c/g/r after a long-ish
// stem, plus an exception table.
var eFinalStems = map[string]bool{
	"diagnos": true, "stor": true, "liv": true, "mov": true, "lov": true,
	"us": true, "caus": true, "clos": true, "rais": true, "increas": true,
	"decreas": true, "releas": true, "pleas": true, "chang": true,
	"charg": true, "manag": true, "arrang": true, "describ": true,
	"provid": true, "includ": true, "combin": true, "examin": true,
	"determin": true, "imagin": true, "requir": true, "compar": true,
	"declar": true, "prepar": true, "shar": true, "car": true,
	"receiv": true, "believ": true, "achiev": true, "serv": true,
	"observ": true, "reserv": true, "sav": true, "giv": true, "hav": true,
	"tak": true, "mak": true, "nam": true, "com": true, "becom": true,
	"produc": true, "reduc": true, "introduc": true, "plac": true,
	"not": true, "creat": true, "stat": true, "relat": true, "operat": true,
	"generat": true, "calculat": true, "aggregat": true, "updat": true,
	"locat": true, "rat": true, "dat": true, "indicat": true, "estimat": true,
	"enumerat": true, "schedul": true, "measur": true, "figur": true,
	"structur": true, "pictur": true, "captur": true, "featur": true,
	"compil": true, "fil": true, "smil": true, "styl": true, "valu": true,
	"argu": true, "continu": true, "issu": true, "pursu": true,
	"retriev": true, "admitt": false,
}

func needsE(stem string) bool {
	if v, ok := eFinalStems[stem]; ok {
		return v
	}
	return false
}

func isVowel(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// LemmatizeAll lemmatizes each token in the slice, returning a new
// slice.
func LemmatizeAll(toks []string) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = Lemmatize(t)
	}
	return out
}
