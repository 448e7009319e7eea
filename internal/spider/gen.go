package spider

import (
	"fmt"
	"math/rand"

	"repro/internal/schema"
)

// Cross-domain schema generator: a seeded composer that assembles
// connected, annotated schemas from entity/column pools, standing in
// for the long tail of tenant databases an NLIDB service would host.
// Every generated schema satisfies schema.Validate and is Connected —
// table 0 is the root and every later table carries a foreign key to
// an earlier one — so the full DBPal pipeline (generate→augment→
// lemmatize→dedup→train) runs on it unmodified. The registry's chaos
// suite onboards fleets of these under live traffic.

// genEntity is one table archetype in the generator pool. Singulars
// double as FK column stems (<singular>_id), so they must be distinct
// from every column-pool name.
type genEntity struct {
	plural, singular string
	synonym          string
}

var genEntities = []genEntity{
	{"vendors", "vendor", "supplier"},
	{"clients", "client", "customer"},
	{"projects", "project", "initiative"},
	{"tickets", "ticket", "issue"},
	{"devices", "device", "gadget"},
	{"warehouses", "warehouse", "depot"},
	{"couriers", "courier", "carrier"},
	{"branches", "branch", "office"},
	{"shipments", "shipment", "delivery"},
	{"members", "member", "subscriber"},
	{"machines", "machine", "unit"},
	{"stations", "station", "stop"},
	{"parcels", "parcel", "package"},
	{"venues", "venue", "hall"},
	{"crews", "crew", "team"},
	{"routes", "route", "path"},
}

// genNumCol pool: numeric columns with domain tags so the augmenter
// picks domain-specific comparatives and engine.GenerateData draws
// plausible value ranges.
type genNumCol struct {
	name string
	dom  schema.Domain
}

var genNumCols = []genNumCol{
	{"age", schema.DomainAge},
	{"price", schema.DomainMoney},
	{"budget", schema.DomainMoney},
	{"salary", schema.DomainMoney},
	{"capacity", schema.DomainCount},
	{"weight", schema.DomainWeight},
	{"height", schema.DomainHeight},
	{"length", schema.DomainLength},
	{"area", schema.DomainArea},
	{"duration", schema.DomainDuration},
	{"rating", schema.DomainNone},
	{"score", schema.DomainNone},
	{"year", schema.DomainNone},
}

// genTextCols: categorical text columns; "city"/"state" deliberately
// hit engine.GenerateData's named value pools.
var genTextCols = []string{"city", "state", "category", "region", "grade", "color", "level"}

// GenerateSchema deterministically synthesizes one connected
// cross-domain schema from seed: 2–4 tables drawn from the entity
// pool, each with an id primary key, a name column, 1–2 domain-tagged
// numeric columns, an optional categorical text column, and (for every
// table after the first) a foreign key to a uniformly chosen earlier
// table. The same seed always yields the identical schema; distinct
// seeds yield distinct schema names (synth<seed>).
func GenerateSchema(seed int64) *schema.Schema {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(3)
	order := rng.Perm(len(genEntities))[:n]
	s := &schema.Schema{Name: fmt.Sprintf("synth%d", seed)}
	for i, ei := range order {
		e := genEntities[ei]
		t := &schema.Table{
			Name:     e.plural,
			Readable: e.singular,
			Synonyms: []string{e.synonym},
		}
		t.Columns = append(t.Columns,
			col("id", schema.Number, pk()),
			col("name", schema.Text),
		)
		if rng.Intn(2) == 0 {
			t.Columns = append(t.Columns, col(genTextCols[rng.Intn(len(genTextCols))], schema.Text))
		}
		for _, j := range rng.Perm(len(genNumCols))[:1+rng.Intn(2)] {
			nc := genNumCols[j]
			t.Columns = append(t.Columns, col(nc.name, schema.Number, dom(nc.dom)))
		}
		if i > 0 {
			parent := s.Tables[rng.Intn(i)]
			fkCol := parent.Readable + "_id"
			t.Columns = append(t.Columns, col(fkCol, schema.Number))
			s.ForeignKeys = append(s.ForeignKeys, schema.ForeignKey{
				FromTable: t.Name, FromColumn: fkCol,
				ToTable: parent.Name, ToColumn: "id",
			})
		}
		s.Tables = append(s.Tables, t)
	}
	return s
}

// Workload samples n pre-anonymized benchmark questions over an
// arbitrary schema (generated or zoo) using the train-split kinds —
// the onboarding eval gate scores candidate models against it.
func Workload(s *schema.Schema, n int, seed int64) []Question {
	g := newSampler(s, rand.New(rand.NewSource(seed)), false)
	return g.sample(n)
}
