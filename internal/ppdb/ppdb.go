// Package ppdb is the Paraphrase Database stand-in used by the
// automatic-paraphrasing augmentation step. The paper uses PPDB's
// English corpus (73M phrasal + 8M lexical paraphrases); this package
// substitutes an embedded synthetic paraphrase table covering the
// query-domain vocabulary, with per-entry quality scores.
//
// Crucially for reproducing the paper's trade-off ("PPDB also includes
// some paraphrases that are of low quality"), the table deliberately
// contains noisy, meaning-distorting entries at low quality scores:
// turning the paraphrasing knobs up (larger sizePara/numPara) pulls in
// these entries, injecting noise into the training data exactly as the
// paper describes.
package ppdb

import (
	"sort"
	"strings"

	"repro/internal/lexicon"
)

// Entry is one paraphrase candidate with a quality score in (0, 1].
// Quality above 0.5 is meaning-preserving; entries at or below 0.5 are
// the noisy tail.
type Entry struct {
	Paraphrase string
	Quality    float64
}

// head is the curated table: unigram and bigram keys mapped to
// paraphrase candidates. Keys and paraphrases are lower-case,
// space-separated token sequences.
var head = map[string][]Entry{
	// --- verbs of showing (the paper's running example) ---
	"show": {
		{"display", 0.95}, {"list", 0.9}, {"present", 0.85},
		{"demonstrate", 0.6}, {"showcase", 0.55}, {"indicate", 0.5},
		{"lay", 0.2},
	},
	"show me": {
		{"give me", 0.95}, {"display", 0.9}, {"let me see", 0.85},
		{"i would like to see", 0.8}, {"point me to", 0.4},
	},
	"list": {
		{"enumerate", 0.9}, {"show", 0.9}, {"display", 0.85},
		{"itemize", 0.7}, {"identify", 0.6}, {"lean", 0.1},
	},
	"enumerate": {
		{"list", 0.95}, {"identify", 0.7}, {"count off", 0.5},
	},
	"display": {
		{"show", 0.95}, {"present", 0.85}, {"exhibit", 0.6}, {"screen", 0.2},
	},
	"find": {
		{"locate", 0.9}, {"get", 0.85}, {"retrieve", 0.85}, {"discover", 0.6},
		{"search", 0.55}, {"fund", 0.05},
	},
	"get": {
		{"retrieve", 0.9}, {"fetch", 0.85}, {"obtain", 0.8}, {"acquire", 0.6},
		{"receive", 0.4},
	},
	"give": {
		{"provide", 0.9}, {"supply", 0.7}, {"hand", 0.3},
	},
	"give me": {
		{"show me", 0.9}, {"provide me with", 0.8}, {"hand me", 0.4},
	},
	"tell me": {
		{"show me", 0.85}, {"let me know", 0.8}, {"inform me of", 0.7},
	},
	"return": {
		{"give back", 0.5}, {"output", 0.8}, {"produce", 0.6}, {"go back", 0.1},
	},
	"output": {
		{"return", 0.8}, {"print", 0.7}, {"produce", 0.7},
	},
	"count": {
		{"tally", 0.8}, {"number", 0.7}, {"total", 0.7}, {"count up", 0.75},
		{"matter", 0.1},
	},

	// --- wh-phrases ---
	"what is": {
		{"what's", 0.95}, {"tell me", 0.8}, {"which is", 0.6}, {"how is", 0.2},
	},
	"what are": {
		{"which are", 0.7}, {"tell me", 0.7}, {"what're", 0.8},
	},
	"how many": {
		{"what is the number of", 0.9}, {"what number of", 0.8},
		{"count of", 0.7}, {"how much", 0.4},
	},
	"how much": {
		{"what amount of", 0.8}, {"how many", 0.4},
	},
	"who": {
		{"which person", 0.7}, {"whom", 0.6},
	},

	// --- quantifiers / determiners ---
	"all": {
		{"every", 0.85}, {"each", 0.7}, {"the entire set of", 0.6},
		{"any", 0.4},
	},
	"every": {
		{"all", 0.85}, {"each", 0.85}, {"any", 0.4},
	},
	"each": {
		{"every", 0.9}, {"all", 0.7}, {"apiece", 0.3},
	},
	"number of": {
		{"count of", 0.9}, {"amount of", 0.7}, {"quantity of", 0.7},
		{"figure of", 0.2},
	},

	// --- comparison phrases ---
	"greater than": {
		{"more than", 0.95}, {"larger than", 0.9}, {"above", 0.85},
		{"over", 0.85}, {"exceeding", 0.8}, {"in excess of", 0.7},
		{"greater", 0.4},
	},
	"more than": {
		{"greater than", 0.95}, {"over", 0.9}, {"above", 0.85},
		{"upwards of", 0.6}, {"more", 0.3},
	},
	"less than": {
		{"smaller than", 0.9}, {"under", 0.9}, {"below", 0.9},
		{"fewer than", 0.85}, {"not more than", 0.5}, {"less", 0.3},
	},
	"at least": {
		{"no less than", 0.85}, {"a minimum of", 0.8}, {"at the least", 0.7},
		{"at most", 0.05},
	},
	"at most": {
		{"no more than", 0.85}, {"a maximum of", 0.8}, {"at least", 0.05},
	},
	"equal to": {
		{"the same as", 0.85}, {"exactly", 0.8}, {"identical to", 0.7},
		{"equal", 0.4},
	},
	"older than": {
		{"above the age of", 0.9}, {"aged over", 0.85}, {"elder than", 0.4},
	},
	"younger than": {
		{"below the age of", 0.9}, {"aged under", 0.85},
	},

	// --- aggregates ---
	"average": {
		{"mean", 0.95}, {"typical", 0.6}, {"expected", 0.4}, {"medium", 0.2},
	},
	"mean": {
		{"average", 0.95}, {"imply", 0.05}, {"unkind", 0.02},
	},
	"maximum": {
		{"highest", 0.9}, {"largest", 0.9}, {"greatest", 0.85}, {"top", 0.7},
		{"utmost", 0.4},
	},
	"minimum": {
		{"lowest", 0.9}, {"smallest", 0.9}, {"least", 0.8}, {"bottom", 0.6},
	},
	"highest": {
		{"maximum", 0.9}, {"largest", 0.8}, {"top", 0.7}, {"tallest", 0.5},
	},
	"lowest": {
		{"minimum", 0.9}, {"smallest", 0.8}, {"bottom", 0.6},
	},
	"total": {
		{"sum", 0.9}, {"overall", 0.8}, {"combined", 0.75}, {"entire", 0.5},
		{"complete", 0.3},
	},
	"sum": {
		{"total", 0.9}, {"sum total", 0.8}, {"summation", 0.6}, {"amount", 0.5},
	},

	// --- clause connectors ---
	"with": {
		{"having", 0.85}, {"that have", 0.8}, {"possessing", 0.5},
		{"alongside", 0.2},
	},
	"whose": {
		{"with a", 0.6}, {"that have a", 0.6}, {"of whom the", 0.4},
	},
	"where": {
		{"in which", 0.8}, {"for which", 0.75}, {"wherever", 0.3},
	},
	"for each": {
		{"per", 0.9}, {"for every", 0.9}, {"by each", 0.7},
		{"grouped by", 0.7},
	},
	"per": {
		{"for each", 0.9}, {"for every", 0.85}, {"a", 0.2},
	},
	"sorted by": {
		{"ordered by", 0.95}, {"ranked by", 0.8}, {"arranged by", 0.8},
		{"classified by", 0.4},
	},
	"ordered by": {
		{"sorted by", 0.95}, {"arranged by", 0.8}, {"commanded by", 0.05},
	},
	"and": {
		{"as well as", 0.85}, {"along with", 0.7}, {"plus", 0.5},
	},
	"or": {
		{"or else", 0.7}, {"alternatively", 0.5},
	},
	"not": {
		{"other than", 0.6}, {"excluding", 0.6}, {"no", 0.3},
	},
	"between": {
		{"in the range of", 0.85}, {"ranging between", 0.8}, {"among", 0.3},
	},
	"in": {
		{"within", 0.8}, {"inside", 0.6}, {"into", 0.2},
	},
	"of": {
		{"belonging to", 0.6}, {"from", 0.5}, {"regarding", 0.3},
	},

	// --- domain nouns (lexical paraphrases) ---
	"patient":    {{"inpatient", 0.8}, {"case", 0.6}, {"sufferer", 0.4}},
	"patients":   {{"inpatients", 0.8}, {"cases", 0.6}, {"the sick", 0.3}},
	"doctor":     {{"physician", 0.95}, {"clinician", 0.85}, {"medic", 0.6}, {"doc", 0.5}},
	"doctors":    {{"physicians", 0.95}, {"clinicians", 0.85}, {"medics", 0.6}},
	"disease":    {{"illness", 0.9}, {"condition", 0.8}, {"ailment", 0.75}, {"sickness", 0.7}},
	"diseases":   {{"illnesses", 0.9}, {"conditions", 0.8}, {"ailments", 0.75}},
	"diagnosis":  {{"finding", 0.6}, {"assessment", 0.5}},
	"hospital":   {{"clinic", 0.8}, {"medical center", 0.8}, {"infirmary", 0.6}},
	"stay":       {{"visit", 0.6}, {"stint", 0.5}, {"remain", 0.2}},
	"age":        {{"years", 0.6}, {"age in years", 0.7}, {"era", 0.05}},
	"name":       {{"title", 0.6}, {"designation", 0.5}, {"appoint", 0.05}},
	"names":      {{"titles", 0.6}, {"designations", 0.5}},
	"city":       {{"town", 0.85}, {"municipality", 0.8}, {"urban area", 0.6}},
	"cities":     {{"towns", 0.85}, {"municipalities", 0.8}, {"urban areas", 0.6}},
	"state":      {{"province", 0.7}, {"region", 0.6}, {"condition", 0.1}},
	"states":     {{"provinces", 0.7}, {"regions", 0.6}},
	"country":    {{"nation", 0.9}, {"land", 0.5}, {"countryside", 0.1}},
	"population": {{"number of residents", 0.85}, {"number of inhabitants", 0.85}, {"headcount", 0.5}},
	"area":       {{"size", 0.7}, {"surface area", 0.85}, {"zone", 0.3}, {"region", 0.3}},
	"river":      {{"stream", 0.7}, {"waterway", 0.7}},
	"mountain":   {{"peak", 0.85}, {"summit", 0.7}, {"mount", 0.8}},
	"mountains":  {{"peaks", 0.85}, {"summits", 0.7}},
	"height":     {{"elevation", 0.85}, {"altitude", 0.8}, {"tallness", 0.4}},
	"length":     {{"duration", 0.6}, {"extent", 0.6}, {"span", 0.5}},
	"salary":     {{"pay", 0.9}, {"wage", 0.85}, {"compensation", 0.75}, {"earnings", 0.7}},
	"employee":   {{"worker", 0.9}, {"staff member", 0.85}},
	"employees":  {{"workers", 0.9}, {"staff members", 0.85}, {"staff", 0.8}},
	"department": {{"division", 0.8}, {"unit", 0.6}, {"section", 0.5}},
	"student":    {{"pupil", 0.85}, {"learner", 0.6}},
	"students":   {{"pupils", 0.85}, {"learners", 0.6}},
	"teacher":    {{"instructor", 0.85}, {"educator", 0.75}},
	"course":     {{"class", 0.8}, {"module", 0.5}, {"direction", 0.1}},
	"flight":     {{"trip", 0.6}, {"journey", 0.5}, {"escape", 0.05}},
	"flights":    {{"trips", 0.6}, {"journeys", 0.5}},
	"airline":    {{"carrier", 0.85}, {"airway", 0.5}},
	"car":        {{"vehicle", 0.9}, {"automobile", 0.9}, {"auto", 0.8}},
	"cars":       {{"vehicles", 0.9}, {"automobiles", 0.9}, {"autos", 0.8}},
	"price":      {{"cost", 0.9}, {"value", 0.5}, {"prize", 0.05}},
	"customer":   {{"client", 0.85}, {"buyer", 0.75}, {"patron", 0.6}},
	"customers":  {{"clients", 0.85}, {"buyers", 0.75}, {"patrons", 0.6}},
	"order":      {{"purchase", 0.7}, {"command", 0.1}, {"sequence", 0.1}},
	"product":    {{"item", 0.8}, {"good", 0.7}, {"merchandise", 0.6}},
	"products":   {{"items", 0.8}, {"goods", 0.7}},
	"song":       {{"track", 0.85}, {"tune", 0.7}, {"number", 0.2}},
	"songs":      {{"tracks", 0.85}, {"tunes", 0.7}},
	"album":      {{"record", 0.7}, {"LP", 0.5}},
	"team":       {{"club", 0.8}, {"squad", 0.8}, {"side", 0.4}},
	"teams":      {{"clubs", 0.8}, {"squads", 0.8}},
	"player":     {{"athlete", 0.7}, {"competitor", 0.5}, {"gambler", 0.05}},
	"players":    {{"athletes", 0.7}, {"competitors", 0.5}},
	"stadium":    {{"arena", 0.8}, {"venue", 0.7}, {"ground", 0.5}},
	"budget":     {{"funds", 0.7}, {"allocation", 0.6}},
	"year":       {{"calendar year", 0.7}, {"twelve months", 0.5}},
	"capital":    {{"capital city", 0.85}, {"funds", 0.1}},
}

// table is the full lookup table: head entries plus entries derived
// from the lexicon's general synonym dictionary (both directions, at a
// fixed mid-high quality).
var table = buildTable()

func buildTable() map[string][]Entry {
	t := make(map[string][]Entry, len(head)*2)
	for k, es := range head {
		t[k] = append(t[k], es...)
	}
	for w, syns := range lexicon.GeneralSynonyms {
		for _, s := range syns {
			t[w] = addIfAbsent(t[w], Entry{Paraphrase: s, Quality: 0.8})
			t[s] = addIfAbsent(t[s], Entry{Paraphrase: w, Quality: 0.8})
		}
	}
	// Deterministic order: sort each candidate list by quality desc,
	// then alphabetically.
	for k := range t {
		es := t[k]
		sort.Slice(es, func(i, j int) bool {
			if es[i].Quality != es[j].Quality {
				return es[i].Quality > es[j].Quality
			}
			return es[i].Paraphrase < es[j].Paraphrase
		})
		t[k] = es
	}
	return t
}

func addIfAbsent(es []Entry, e Entry) []Entry {
	for _, x := range es {
		if x.Paraphrase == e.Paraphrase {
			return es
		}
	}
	return append(es, e)
}

// Lookup returns all paraphrase entries for a word or phrase (space-
// separated tokens, lower case), best first. The returned slice must
// not be modified.
func Lookup(phrase string) []Entry {
	return table[strings.ToLower(phrase)]
}

// Paraphrases returns up to max paraphrases for the phrase with
// quality strictly above minQuality, best first.
func Paraphrases(phrase string, max int, minQuality float64) []string {
	var out []string
	for _, e := range Lookup(phrase) {
		if e.Quality <= minQuality {
			continue
		}
		out = append(out, e.Paraphrase)
		if len(out) >= max {
			break
		}
	}
	return out
}
