// Package schema models relational database schemas for the DBPal
// pipeline: tables, typed columns, primary and foreign keys, and the
// human-readable annotations (readable names and synonyms) that the
// training-data generator uses to verbalize schema elements.
//
// The package also exposes the join graph induced by foreign keys and a
// shortest-join-path search, which the runtime post-processor uses to
// resolve the @JOIN placeholder and to repair FROM clauses.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// ColumnType is the logical type of a column. The engine and the
// generator only need to distinguish text from numbers.
type ColumnType int

const (
	// Text columns hold strings (names, categories, diagnoses...).
	Text ColumnType = iota
	// Number columns hold numeric values (ages, populations...).
	Number
)

// String returns the SQL-ish spelling of the type.
func (t ColumnType) String() string {
	switch t {
	case Text:
		return "TEXT"
	case Number:
		return "NUMBER"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Domain describes the semantic domain of a column. The augmenter uses
// it to choose domain-specific comparative phrases (e.g. "older than"
// for an age column instead of the generic "greater than").
type Domain string

// Common column domains understood by the comparative/superlative
// dictionaries in internal/lexicon.
const (
	DomainNone     Domain = ""
	DomainAge      Domain = "age"
	DomainLength   Domain = "length"
	DomainHeight   Domain = "height"
	DomainArea     Domain = "area"
	DomainCount    Domain = "count"
	DomainMoney    Domain = "money"
	DomainDuration Domain = "duration"
	DomainWeight   Domain = "weight"
)

// Column is a typed, annotated schema column.
type Column struct {
	// Name is the physical column name as it appears in SQL.
	Name string
	// Type is the logical column type.
	Type ColumnType
	// Readable is the human-readable name used in generated NL. If
	// empty, Name with underscores replaced by spaces is used.
	Readable string
	// Synonyms are additional NL surface forms for the column
	// ("illness" for disease). They seed the slot-fill lexicons.
	Synonyms []string
	// Domain tags the semantic domain for comparative phrasing.
	Domain Domain
	// PrimaryKey marks the column as (part of) the table's key.
	PrimaryKey bool
}

// ReadableName returns the annotated readable name, falling back to the
// physical name with underscores replaced by spaces.
func (c *Column) ReadableName() string {
	if c.Readable != "" {
		return c.Readable
	}
	return strings.ReplaceAll(c.Name, "_", " ")
}

// SurfaceForms returns every NL form for the column: readable name
// first, then synonyms.
func (c *Column) SurfaceForms() []string {
	forms := []string{c.ReadableName()}
	forms = append(forms, c.Synonyms...)
	return forms
}

// Table is a named collection of columns.
type Table struct {
	// Name is the physical table name.
	Name string
	// Readable is the human-readable (typically singular) noun for a
	// row of the table, e.g. "patient" for table "patients".
	Readable string
	// Synonyms are additional NL nouns for the table.
	Synonyms []string
	// Columns in declaration order.
	Columns []*Column
}

// ReadableName returns the annotated readable name for the table.
func (t *Table) ReadableName() string {
	if t.Readable != "" {
		return t.Readable
	}
	return strings.ReplaceAll(t.Name, "_", " ")
}

// SurfaceForms returns every NL form for the table.
func (t *Table) SurfaceForms() []string {
	forms := []string{t.ReadableName()}
	forms = append(forms, t.Synonyms...)
	return forms
}

// Column returns the column with the given physical name, or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return c
		}
	}
	return nil
}

// ForeignKey links a column of one table to a column of another,
// defining an edge in the join graph.
type ForeignKey struct {
	FromTable  string
	FromColumn string
	ToTable    string
	ToColumn   string
}

// Schema is a complete annotated database schema.
type Schema struct {
	// Name identifies the schema (and, loosely, its domain).
	Name string
	// Tables in declaration order.
	Tables []*Table
	// ForeignKeys define the join graph.
	ForeignKeys []ForeignKey
}

// Table returns the table with the given physical name, or nil.
func (s *Schema) Table(name string) *Table {
	for _, t := range s.Tables {
		if strings.EqualFold(t.Name, name) {
			return t
		}
	}
	return nil
}

// Column resolves "table.column". It returns nil if either part is
// unknown.
func (s *Schema) Column(table, column string) *Column {
	t := s.Table(table)
	if t == nil {
		return nil
	}
	return t.Column(column)
}

// TablesWithColumn returns the names of all tables containing a column
// with the given name, in schema declaration order.
func (s *Schema) TablesWithColumn(column string) []string {
	var out []string
	for _, t := range s.Tables {
		if t.Column(column) != nil {
			out = append(out, t.Name)
		}
	}
	return out
}

// Validate checks internal consistency: unique table names, unique
// column names per table, and foreign keys that reference existing
// columns. It returns the first problem found.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema has no name")
	}
	if len(s.Tables) == 0 {
		return fmt.Errorf("schema %q has no tables", s.Name)
	}
	seenTables := map[string]bool{}
	for _, t := range s.Tables {
		lower := strings.ToLower(t.Name)
		if t.Name == "" {
			return fmt.Errorf("schema %q: table with empty name", s.Name)
		}
		if seenTables[lower] {
			return fmt.Errorf("schema %q: duplicate table %q", s.Name, t.Name)
		}
		seenTables[lower] = true
		if len(t.Columns) == 0 {
			return fmt.Errorf("schema %q: table %q has no columns", s.Name, t.Name)
		}
		seenCols := map[string]bool{}
		for _, c := range t.Columns {
			lc := strings.ToLower(c.Name)
			if c.Name == "" {
				return fmt.Errorf("schema %q: table %q has a column with empty name", s.Name, t.Name)
			}
			if seenCols[lc] {
				return fmt.Errorf("schema %q: table %q: duplicate column %q", s.Name, t.Name, c.Name)
			}
			seenCols[lc] = true
		}
	}
	for _, fk := range s.ForeignKeys {
		if s.Column(fk.FromTable, fk.FromColumn) == nil {
			return fmt.Errorf("schema %q: foreign key references unknown column %s.%s",
				s.Name, fk.FromTable, fk.FromColumn)
		}
		if s.Column(fk.ToTable, fk.ToColumn) == nil {
			return fmt.Errorf("schema %q: foreign key references unknown column %s.%s",
				s.Name, fk.ToTable, fk.ToColumn)
		}
	}
	return nil
}

// JoinEdge is one hop in a join path: join left.LeftColumn with
// right.RightColumn.
type JoinEdge struct {
	LeftTable   string
	LeftColumn  string
	RightTable  string
	RightColumn string
}

// String renders the edge as a SQL join condition.
func (e JoinEdge) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", e.LeftTable, e.LeftColumn, e.RightTable, e.RightColumn)
}

// neighbors builds the adjacency list of the join graph. Edges are
// bidirectional: a foreign key joins both ways.
func (s *Schema) neighbors() map[string][]JoinEdge {
	adj := map[string][]JoinEdge{}
	for _, fk := range s.ForeignKeys {
		adj[strings.ToLower(fk.FromTable)] = append(adj[strings.ToLower(fk.FromTable)], JoinEdge{
			LeftTable: fk.FromTable, LeftColumn: fk.FromColumn,
			RightTable: fk.ToTable, RightColumn: fk.ToColumn,
		})
		adj[strings.ToLower(fk.ToTable)] = append(adj[strings.ToLower(fk.ToTable)], JoinEdge{
			LeftTable: fk.ToTable, LeftColumn: fk.ToColumn,
			RightTable: fk.FromTable, RightColumn: fk.FromColumn,
		})
	}
	return adj
}

// JoinPath returns the shortest sequence of join edges connecting from
// and to through the foreign-key graph (BFS; deterministic tie-break by
// declaration order). It returns nil if the tables are not connected,
// and an empty slice if from == to.
func (s *Schema) JoinPath(from, to string) []JoinEdge {
	from = strings.ToLower(from)
	to = strings.ToLower(to)
	if from == to {
		return []JoinEdge{}
	}
	adj := s.neighbors()
	type state struct {
		table string
		path  []JoinEdge
	}
	visited := map[string]bool{from: true}
	queue := []state{{table: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur.table] {
			next := strings.ToLower(e.RightTable)
			if visited[next] {
				continue
			}
			visited[next] = true
			path := make([]JoinEdge, len(cur.path), len(cur.path)+1)
			copy(path, cur.path)
			path = append(path, e)
			if next == to {
				return path
			}
			queue = append(queue, state{table: next, path: path})
		}
	}
	return nil
}

// JoinPathAll returns a minimal set of join edges connecting all the
// given tables (a Steiner-tree approximation: connect each table to the
// growing component via its shortest path). It returns nil if any table
// cannot be connected. Tables already connected contribute no edges.
func (s *Schema) JoinPathAll(tables []string) []JoinEdge {
	if len(tables) <= 1 {
		return []JoinEdge{}
	}
	connected := map[string]bool{strings.ToLower(tables[0]): true}
	var edges []JoinEdge
	remaining := tables[1:]
	for _, want := range remaining {
		lw := strings.ToLower(want)
		if connected[lw] {
			continue
		}
		// Shortest path from any connected table to want.
		var best []JoinEdge
		var connectedList []string
		for t := range connected {
			connectedList = append(connectedList, t)
		}
		sort.Strings(connectedList) // deterministic
		for _, from := range connectedList {
			p := s.JoinPath(from, want)
			if p == nil {
				continue
			}
			if best == nil || len(p) < len(best) {
				best = p
			}
		}
		if best == nil {
			return nil
		}
		for _, e := range best {
			edges = append(edges, e)
			connected[strings.ToLower(e.LeftTable)] = true
			connected[strings.ToLower(e.RightTable)] = true
		}
	}
	return edges
}

// Connected reports whether every table in the schema is reachable from
// every other through the foreign-key graph.
//
//lint:allow deadcode test oracle: the schema and spider generator tests assert generated join graphs are connected
func (s *Schema) Connected() bool {
	if len(s.Tables) <= 1 {
		return true
	}
	first := s.Tables[0].Name
	for _, t := range s.Tables[1:] {
		if s.JoinPath(first, t.Name) == nil {
			return false
		}
	}
	return true
}

// String renders the schema as readable DDL-ish text (for logs and
// docs, not for parsing).
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCHEMA %s\n", s.Name)
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "  TABLE %s (", t.Name)
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
			if c.PrimaryKey {
				b.WriteString(" PK")
			}
		}
		b.WriteString(")\n")
	}
	for _, fk := range s.ForeignKeys {
		fmt.Fprintf(&b, "  FK %s.%s -> %s.%s\n", fk.FromTable, fk.FromColumn, fk.ToTable, fk.ToColumn)
	}
	return b.String()
}
