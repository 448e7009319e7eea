// Package patients is the paper's new benchmark (§6.2): a medical
// database of hospital patients plus 399 carefully crafted NL–SQL
// pairs that systematically test a translator's linguistic robustness.
// The pairs are grouped into seven categories — naive, syntactic,
// morphological, lexical, semantic, missing (information), and mixed —
// with 57 queries per category (one NL rendering per category for each
// of 57 base queries, mirroring the structure of the public
// ParaphraseBench).
//
// Unlike exact-match benchmarks, Patients scores semantic equivalence:
// a prediction is correct when it executes to the same result as the
// gold query on the benchmark database.
package patients

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/sqlast"
)

// Category names a linguistic-variation group.
type Category int

// The seven benchmark categories, in the paper's reporting order.
const (
	Naive Category = iota
	Syntactic
	Lexical
	Morphological
	Semantic
	Missing
	Mixed
	NumCategories
)

// String names the category as the paper spells it.
func (c Category) String() string {
	switch c {
	case Naive:
		return "Naive"
	case Syntactic:
		return "Syntactic"
	case Lexical:
		return "Lexical"
	case Morphological:
		return "Morphological"
	case Semantic:
		return "Semantic"
	case Missing:
		return "Missing"
	case Mixed:
		return "Mixed"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories lists the categories in reporting order.
var Categories = []Category{Naive, Syntactic, Lexical, Morphological, Semantic, Missing, Mixed}

// Case is one benchmark test case: an NL question with constants and
// the gold SQL to compare against by execution.
type Case struct {
	ID       string
	Category Category
	NL       string
	SQL      string
}

// Schema returns the annotated hospital schema of the benchmark.
func Schema() *schema.Schema {
	return &schema.Schema{
		Name: "patients",
		Tables: []*schema.Table{
			{
				Name:     "patients",
				Readable: "patient",
				Synonyms: []string{"case"},
				Columns: []*schema.Column{
					{Name: "id", Type: schema.Number, PrimaryKey: true},
					{Name: "name", Type: schema.Text},
					{Name: "age", Type: schema.Number, Domain: schema.DomainAge},
					{Name: "gender", Type: schema.Text, Synonyms: []string{"sex"}},
					{Name: "diagnosis", Type: schema.Text, Synonyms: []string{"disease", "illness", "condition"}},
					{Name: "length_of_stay", Type: schema.Number, Readable: "length of stay", Domain: schema.DomainDuration, Synonyms: []string{"stay"}},
				},
			},
		},
	}
}

// row is one curated patient record.
type row struct {
	id     int
	name   string
	age    float64
	gender string
	diag   string
	stay   float64
}

// data is the curated benchmark content. Every constant mentioned in
// the benchmark queries occurs in the data, and the filters are
// selective but non-empty, so execution-based equivalence
// discriminates between right and wrong translations.
var data = []row{
	{1, "alice johnson", 80, "female", "influenza", 12},
	{2, "bob smith", 80, "male", "diabetes", 5},
	{3, "carol davis", 34, "female", "influenza", 3},
	{4, "david miller", 45, "male", "asthma", 2},
	{5, "emma wilson", 67, "female", "pneumonia", 21},
	{6, "frank moore", 72, "male", "hypertension", 8},
	{7, "grace taylor", 29, "female", "migraine", 1},
	{8, "henry anderson", 55, "male", "diabetes", 9},
	{9, "irene thomas", 61, "female", "arthritis", 4},
	{10, "jack jackson", 80, "male", "pneumonia", 30},
	{11, "karen white", 18, "female", "asthma", 2},
	{12, "liam harris", 42, "male", "influenza", 6},
	{13, "mia martin", 90, "female", "pneumonia", 40},
	{14, "noah thompson", 25, "male", "migraine", 1},
	{15, "olivia garcia", 38, "female", "diabetes", 7},
	{16, "peter martinez", 51, "male", "hypertension", 10},
	{17, "quinn robinson", 47, "female", "arthritis", 5},
	{18, "rachel clark", 70, "female", "influenza", 14},
	{19, "sam rodriguez", 33, "male", "asthma", 3},
	{20, "tina lewis", 58, "female", "hypertension", 11},
	{21, "victor young", 64, "male", "diabetes", 13},
	{22, "wendy hall", 22, "female", "migraine", 2},
	{23, "xavier allen", 77, "male", "arthritis", 16},
	{24, "yara king", 49, "female", "pneumonia", 18},
	{25, "zane wright", 85, "male", "influenza", 25},
	{26, "amber scott", 31, "female", "asthma", 4},
	{27, "brian green", 68, "male", "hypertension", 9},
	{28, "chloe adams", 27, "female", "diabetes", 6},
	{29, "dylan baker", 59, "male", "migraine", 2},
	{30, "ella nelson", 73, "female", "arthritis", 12},
	{31, "felix carter", 36, "male", "influenza", 5},
	{32, "gina mitchell", 44, "female", "pneumonia", 15},
	{33, "hugo perez", 52, "male", "asthma", 3},
	{34, "ivy roberts", 65, "female", "hypertension", 10},
	{35, "jonas turner", 40, "male", "diabetes", 8},
	{36, "kira phillips", 19, "female", "migraine", 1},
	{37, "leo campbell", 81, "male", "arthritis", 20},
	{38, "mona parker", 57, "female", "influenza", 9},
	{39, "nick evans", 62, "male", "pneumonia", 22},
	{40, "opal edwards", 24, "female", "asthma", 2},
}

// Database builds the benchmark database with the curated content.
func Database() (*engine.Database, error) {
	s := Schema()
	db := engine.NewDatabase(s)
	for _, r := range data {
		err := db.Insert("patients", engine.Row{
			engine.Num(float64(r.id)), engine.Str(r.name), engine.Num(r.age),
			engine.Str(r.gender), engine.Str(r.diag), engine.Num(r.stay),
		})
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Cases returns all 399 benchmark cases (57 per category), validated:
// every gold SQL parses.
func Cases() []Case {
	var out []Case
	for _, q := range queries {
		if _, err := sqlast.Parse(q.SQL); err != nil {
			panic(fmt.Sprintf("patients: query %s gold SQL invalid: %v", q.ID, err))
		}
		for ci, nl := range q.NL {
			if nl == "" {
				panic(fmt.Sprintf("patients: query %s missing category %v", q.ID, Category(ci)))
			}
			out = append(out, Case{
				ID:       fmt.Sprintf("%s/%s", q.ID, Category(ci)),
				Category: Category(ci),
				NL:       nl,
				SQL:      q.SQL,
			})
		}
	}
	return out
}
