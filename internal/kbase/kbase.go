// Package kbase is a small in-memory relational engine playing the
// role PostgreSQL plays in the paper's implementation: it stores the
// target knowledge base (the relations Fonduer populates) plus the
// intermediate Candidates/Features/Labels relations, with schemas,
// typed columns, uniqueness constraints, predicates, and set
// operations used by the evaluation (coverage and accuracy against an
// existing knowledge base).
package kbase

import (
	"fmt"
	"sort"
	"strings"
)

// ColType enumerates supported column types.
type ColType int

// Column types.
const (
	StringCol ColType = iota
	IntCol
	FloatCol
)

// String returns the SQL-ish name of the column type.
func (t ColType) String() string {
	switch t {
	case StringCol:
		return "varchar"
	case IntCol:
		return "integer"
	case FloatCol:
		return "float"
	default:
		return fmt.Sprintf("coltype(%d)", int(t))
	}
}

// Column describes one attribute of a relation schema.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a relation: its name and typed columns. This is the
// KB schema S_R(T1, ..., Tn) the user specifies during KBC
// initialization.
type Schema struct {
	Name    string
	Columns []Column
}

// NewSchema constructs a schema. Column specs take the form
// "name:type" with type in {varchar, integer, float}; a bare "name"
// defaults to varchar.
func NewSchema(name string, colSpecs ...string) (Schema, error) {
	if name == "" {
		return Schema{}, fmt.Errorf("kbase: schema needs a name")
	}
	if len(colSpecs) == 0 {
		return Schema{}, fmt.Errorf("kbase: schema %s needs at least one column", name)
	}
	s := Schema{Name: name}
	seen := map[string]bool{}
	for _, spec := range colSpecs {
		parts := strings.SplitN(spec, ":", 2)
		col := Column{Name: parts[0], Type: StringCol}
		if col.Name == "" {
			return Schema{}, fmt.Errorf("kbase: schema %s: empty column name", name)
		}
		if seen[col.Name] {
			return Schema{}, fmt.Errorf("kbase: schema %s: duplicate column %q", name, col.Name)
		}
		seen[col.Name] = true
		if len(parts) == 2 {
			switch parts[1] {
			case "varchar", "text", "":
				col.Type = StringCol
			case "integer", "int":
				col.Type = IntCol
			case "float", "real":
				col.Type = FloatCol
			default:
				return Schema{}, fmt.Errorf("kbase: schema %s: unknown type %q", name, parts[1])
			}
		}
		s.Columns = append(s.Columns, col)
	}
	return s, nil
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// SQL renders the schema as a CREATE TABLE statement (Example 3.2).
func (s Schema) SQL() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE TABLE %s (\n", s.Name)
	for i, c := range s.Columns {
		fmt.Fprintf(&sb, "    %s %s", c.Name, c.Type)
		if i < len(s.Columns)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(");")
	return sb.String()
}

// Tuple is one row of a relation. Values are strings, int64s or
// float64s matching the schema's column types.
type Tuple []any

// Clone returns a copy of the tuple that shares no storage with the
// receiver. Tuple values are immutable scalars (string/int64/float64),
// so copying the slice fully detaches the clone: mutating it can never
// corrupt a table that handed it out.
func (tp Tuple) Clone() Tuple {
	if tp == nil {
		return nil
	}
	out := make(Tuple, len(tp))
	copy(out, tp)
	return out
}

// Table stores the tuples of one relation with set semantics over the
// full tuple (inserting a duplicate is a no-op, as relation mentions
// are de-duplicated when populating the KB). Row storage is delegated
// to a pluggable Backend — in-memory or disk-paged — while the Table
// keeps the relational semantics: schema/type checking, tuple
// normalization, and the dedup index.
//
// Two tuples are duplicates when every column renders the same
// (renderCell, i.e. fmt.Sprint). The index maps a tuple's hash
// (hashTuple) to the first stored position with that hash; the rare
// further positions sharing a hash go to overflow, which stays nil
// until a collision happens. The index holds no pointers, so the
// garbage collector never scans it, and set semantics cost a bounded
// ~20-40 bytes per row even when the rows themselves live on disk.
// Every candidate position is confirmed column by column against the
// stored row (rowsEqual).
type Table struct {
	schema   Schema
	be       Backend
	index    map[uint64]int   // tuple hash -> first position with that hash
	overflow map[uint64][]int // tuple hash -> later positions (collisions)
	plan     *planner         // filtered-read planner (lazy hash indexes)
}

// NewTable creates an empty in-memory table for the schema.
func NewTable(schema Schema) *Table {
	be, _ := MemoryEngine{}.NewBackend(schema) // never fails
	return newTableWith(schema, be)
}

// newTableWith wraps an empty backend in a table.
func newTableWith(schema Schema, be Backend) *Table {
	return &Table{schema: schema, be: be, index: map[uint64]int{}, plan: newPlanner()}
}

// BackendKind names the table's storage backend.
func (t *Table) BackendKind() string { return t.be.Kind() }

// BackendStats reports the table's paging counters (zero-valued for
// the in-memory backend) merged with the planner's plan-choice
// counters.
func (t *Table) BackendStats() BackendStats {
	bs := t.be.Stats()
	t.plan.mu.Lock()
	bs.IndexHits = t.plan.indexHits
	bs.FullScans = t.plan.fullScans
	t.plan.mu.Unlock()
	return bs
}

// Close releases the table's backend resources (disk pages). The
// table is unusable afterwards.
func (t *Table) Close() error {
	t.index, t.overflow = nil, nil
	t.plan.invalidate()
	return t.be.Close()
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of stored tuples.
func (t *Table) Len() int { return t.be.Len() }

// typeOK checks a value against a column type.
func typeOK(v any, ct ColType) bool {
	switch ct {
	case StringCol:
		_, ok := v.(string)
		return ok
	case IntCol:
		_, ok := v.(int64)
		if !ok {
			_, ok = v.(int)
		}
		return ok
	case FloatCol:
		_, ok := v.(float64)
		return ok
	}
	return false
}

// normalize widens int values to int64 and type-checks the tuple
// against the schema when check is set.
func (t *Table) normalize(tp Tuple, check bool) (Tuple, error) {
	if len(tp) != t.schema.Arity() {
		return nil, fmt.Errorf("kbase: %s: arity %d, got %d values", t.schema.Name, t.schema.Arity(), len(tp))
	}
	norm := make(Tuple, len(tp))
	for i, v := range tp {
		if iv, ok := v.(int); ok {
			v = int64(iv)
		}
		if check && !typeOK(v, t.schema.Columns[i].Type) {
			return nil, fmt.Errorf("kbase: %s.%s: value %v (%T) does not match %s",
				t.schema.Name, t.schema.Columns[i].Name, v, v, t.schema.Columns[i].Type)
		}
		norm[i] = v
	}
	return norm, nil
}

// lookup returns the position of the stored tuple equal to tp, whose
// hash is h, or -1.
func (t *Table) lookup(tp Tuple, h uint64) int {
	pos, ok := t.index[h]
	if !ok {
		return -1
	}
	if rowsEqual(t.be.Get(pos), tp) {
		return pos
	}
	for _, pos := range t.overflow[h] {
		if rowsEqual(t.be.Get(pos), tp) {
			return pos
		}
	}
	return -1
}

// addToIndex records that the tuple at pos hashes to h.
func (t *Table) addToIndex(h uint64, pos int) {
	if _, taken := t.index[h]; !taken {
		t.index[h] = pos
		return
	}
	if t.overflow == nil {
		t.overflow = map[uint64][]int{}
	}
	t.overflow[h] = append(t.overflow[h], pos)
}

// rebuildIndex rehashes every stored row — the epilogue of any
// positional change (deletes re-pack positions).
func (t *Table) rebuildIndex() {
	t.index = make(map[uint64]int, t.be.Len())
	t.overflow = nil
	pos := 0
	t.be.Scan(func(tp Tuple) bool {
		t.addToIndex(hashTuple(tp), pos)
		pos++
		return true
	})
}

// Insert adds a tuple, enforcing arity and column types. Duplicate
// tuples are ignored. It reports whether the tuple was newly added.
func (t *Table) Insert(tp Tuple) (bool, error) {
	norm, err := t.normalize(tp, true)
	if err != nil {
		return false, err
	}
	h := hashTuple(norm)
	if t.lookup(norm, h) >= 0 {
		return false, nil
	}
	pos := t.be.Len()
	if err := t.be.Append(norm); err != nil {
		return false, err
	}
	t.addToIndex(h, pos)
	t.plan.invalidate()
	return true, nil
}

// Contains reports whether an identical tuple is stored.
func (t *Table) Contains(tp Tuple) bool {
	norm, err := t.normalize(tp, false)
	if err != nil {
		return false
	}
	return t.lookup(norm, hashTuple(norm)) >= 0
}

// Delete removes the exact tuple (after int normalization), reporting
// whether it was present. Deletion re-packs the stored rows, so it is
// O(n). Bulk re-materialization (e.g. a labeling-function edit
// rewriting a Labels column) goes through DeleteWhere, which re-packs
// once for any number of rows.
func (t *Table) Delete(tp Tuple) bool {
	norm, err := t.normalize(tp, false)
	if err != nil {
		return false
	}
	if t.lookup(norm, hashTuple(norm)) < 0 {
		return false
	}
	// Set semantics: exactly one stored row equals the tuple.
	t.be.DeleteWhere(func(row Tuple) bool { return rowsEqual(row, norm) })
	t.rebuildIndex()
	t.plan.invalidate()
	return true
}

// DeleteWhere removes every tuple satisfying pred, returning how many
// were deleted. Surviving tuples keep their relative insertion order.
func (t *Table) DeleteWhere(pred func(Tuple) bool) int {
	deleted := t.be.DeleteWhere(pred)
	if deleted > 0 {
		t.rebuildIndex()
		t.plan.invalidate()
	}
	return deleted
}

// Scan calls fn for every tuple in insertion order; fn returning false
// stops the scan. The tuple passed to fn is *borrowed*: it aliases
// table (or page-cache) storage for the duration of the callback and
// must not be retained or modified (clone it with Tuple.Clone to keep
// it). Scan is the one deliberately zero-copy read path; Select,
// Tuples and Page return detached clones.
func (t *Table) Scan(fn func(Tuple) bool) {
	t.be.Scan(fn)
}

// Select returns clones of the tuples satisfying the predicate. The
// result shares no storage with the table: callers (the serving layer
// hands these out to concurrent readers) may hold or modify them
// freely while the table keeps mutating.
func (t *Table) Select(pred func(Tuple) bool) []Tuple {
	var out []Tuple
	t.be.Scan(func(tp Tuple) bool {
		if pred(tp) {
			out = append(out, tp.Clone())
		}
		return true
	})
	return out
}

// Tuples returns a deep copy of the stored tuples: both the outer
// slice and every tuple are cloned, so the result never aliases table
// storage.
func (t *Table) Tuples() []Tuple {
	out := make([]Tuple, 0, t.be.Len())
	t.be.Scan(func(tp Tuple) bool {
		out = append(out, tp.Clone())
		return true
	})
	return out
}

// Page returns clones of up to limit tuples starting at offset (in
// insertion order) — the pagination read path of the serving layer. A
// negative or zero limit means "to the end"; offsets past the end
// return nil.
func (t *Table) Page(offset, limit int) []Tuple {
	return t.be.Page(offset, limit)
}

// DB is a collection of named tables — the knowledge base. Tables are
// created through the database's storage engine (in-memory unless the
// DB was built with NewDBWith).
type DB struct {
	engine Engine
	tables map[string]*Table
}

// NewDB returns an empty database over the in-memory engine.
func NewDB() *DB { return NewDBWith(MemoryEngine{}) }

// NewDBWith returns an empty database whose tables are created by the
// given storage engine. The database takes ownership of the engine:
// Close closes every table, then the engine.
func NewDBWith(engine Engine) *DB {
	return &DB{engine: engine, tables: map[string]*Table{}}
}

// BackendKind names the database's storage engine.
func (db *DB) BackendKind() string { return db.engine.Kind() }

// Create creates a table for the schema. Creating an existing table is
// an error (the pipeline initializes each KB exactly once).
func (db *DB) Create(schema Schema) (*Table, error) {
	if _, exists := db.tables[schema.Name]; exists {
		return nil, fmt.Errorf("kbase: table %s already exists", schema.Name)
	}
	be, err := db.engine.NewBackend(schema)
	if err != nil {
		return nil, fmt.Errorf("kbase: creating %s backend for %s: %w", db.engine.Kind(), schema.Name, err)
	}
	t := newTableWith(schema, be)
	db.tables[schema.Name] = t
	return t, nil
}

// Close releases every table's backend resources, then the engine's
// (the disk engine removes its spill directory). The database is
// unusable afterwards.
func (db *DB) Close() error {
	var firstErr error
	for _, t := range db.tables {
		if err := t.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.tables = map[string]*Table{}
	if err := db.engine.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// DBStats aggregates the paging and query-plan counters of every
// table's backend.
type DBStats struct {
	// Backend is the engine kind ("memory" or "disk").
	Backend string
	// Pages counts full row pages on disk across all tables.
	Pages int
	// CacheHits / CacheMisses sum the tables' page-cache lookups.
	CacheHits, CacheMisses int64
	// PagesSkipped sums disk pages pruned by zone maps on filtered
	// reads.
	PagesSkipped int64
	// IndexHits / FullScans sum the tables' filtered-read plan
	// choices: answered through a hash index vs scanned.
	IndexHits, FullScans int64
}

// HitRate returns the page-cache hit fraction (0 when no lookups).
func (s DBStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats aggregates the database's backend statistics.
func (db *DB) Stats() DBStats {
	out := DBStats{Backend: db.engine.Kind()}
	for _, t := range db.tables {
		bs := t.BackendStats()
		out.Pages += bs.Pages
		out.CacheHits += bs.CacheHits
		out.CacheMisses += bs.CacheMisses
		out.PagesSkipped += bs.PagesSkipped
		out.IndexHits += bs.IndexHits
		out.FullScans += bs.FullScans
	}
	return out
}

// Attach adds an existing table (e.g. one parsed by ReadTSV) to the
// database under its schema name. Attaching over an existing table is
// an error, mirroring Create.
func (db *DB) Attach(t *Table) error {
	name := t.Schema().Name
	if _, exists := db.tables[name]; exists {
		return fmt.Errorf("kbase: table %s already exists", name)
	}
	db.tables[name] = t
	return nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// Names returns the sorted table names.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Compare summarizes how table got relates to an existing reference
// table ref with an identical schema, the comparison Table 3 of the
// paper performs against expert-curated knowledge bases:
//
//	Coverage  = |got ∩ ref| / |ref|   (how much of the existing KB we found)
//	NewEntries = |got \ ref|           (entries we found beyond the KB)
type Comparison struct {
	RefEntries int
	GotEntries int
	Overlap    int
	NewEntries int
	Coverage   float64
}

// Compare computes the Table 3 comparison between got and ref.
func Compare(got, ref *Table) Comparison {
	c := Comparison{RefEntries: ref.Len(), GotEntries: got.Len()}
	got.Scan(func(tp Tuple) bool {
		if ref.Contains(tp) {
			c.Overlap++
		} else {
			c.NewEntries++
		}
		return true
	})
	if ref.Len() > 0 {
		c.Coverage = float64(c.Overlap) / float64(ref.Len())
	}
	return c
}
