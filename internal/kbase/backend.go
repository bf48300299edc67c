package kbase

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Pred is one pushed-down predicate: an exact equality test between a
// column's *rendered* value (what fmt.Sprint produces — the contract
// the serving layer's /kb column filters already expose) and Want.
// Multiple predicates conjoin. Rendered-value semantics keep pushdown
// bit-identical to the legacy filter loop: a non-canonical probe like
// "007" or "+7" against an integer column matches nothing, exactly as
// string-comparing fmt.Sprint output did.
type Pred struct {
	// Col is the schema column index.
	Col int
	// Want is the rendered value to match exactly.
	Want string
}

// renderCell renders a stored cell exactly as fmt.Sprint does, with
// allocation-free fast paths for the three normalized storage types.
func renderCell(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprint(v)
	}
}

// matcher is a compiled predicate conjunction. Compilation happens
// once per query so the per-row check avoids fmt in the hot loop:
// string columns compare directly, integer columns compare parsed
// int64s (after proving the probe is the canonical rendering), and
// everything else falls back to the rendered comparison.
type matcher struct {
	// impossible marks a conjunction no row can satisfy (a probe that
	// is not the canonical rendering of any value of its column type).
	impossible bool
	preds      []compiledPred
}

type compiledPred struct {
	col    int
	want   string // rendered probe (zone-map checks use this)
	intVal int64  // parsed probe when intOK
	intOK  bool
}

// compilePreds compiles a conjunction against the schema. The preds
// slice is not retained; predicates are evaluated in ascending column
// order so plan choice is deterministic regardless of caller ordering.
func compilePreds(schema Schema, preds []Pred) matcher {
	m := matcher{preds: make([]compiledPred, 0, len(preds))}
	for _, p := range preds {
		cp := compiledPred{col: p.Col, want: p.Want}
		if p.Col < 0 || p.Col >= schema.Arity() {
			m.impossible = true
			return m
		}
		if schema.Columns[p.Col].Type == IntCol {
			n, err := strconv.ParseInt(p.Want, 10, 64)
			if err == nil && strconv.FormatInt(n, 10) == p.Want {
				cp.intVal, cp.intOK = n, true
			} else {
				// fmt.Sprint(int64) only ever emits the canonical
				// rendering, so a non-canonical probe matches nothing.
				m.impossible = true
				return m
			}
		}
		m.preds = append(m.preds, cp)
	}
	sort.SliceStable(m.preds, func(i, j int) bool { return m.preds[i].col < m.preds[j].col })
	return m
}

// match reports whether the row satisfies every predicate. Rows are
// trusted to be normalized (Table.Insert widened ints to int64), with
// a rendered-comparison fallback for anything unexpected.
func (m matcher) match(tp Tuple) bool {
	for _, p := range m.preds {
		v := tp[p.col]
		if p.intOK {
			if n, ok := v.(int64); ok {
				if n != p.intVal {
					return false
				}
				continue
			}
		}
		if s, ok := v.(string); ok {
			if s != p.want {
				return false
			}
			continue
		}
		if renderCell(v) != p.want {
			return false
		}
	}
	return true
}

// Backend is the pluggable row-storage engine behind a Table. A Table
// owns exactly one backend and layers relational semantics on top of
// it — schema/type checking, tuple normalization, and set semantics
// via a compact hash index — so every backend only has to store an
// ordered row sequence.
//
// The three implementations are the in-memory engine (rows in a
// slice, the original representation), the disk-paged engine
// (fixed-size row pages on disk behind a small LRU page cache, so a
// table's resident footprint is the cache plus one partial tail page
// no matter how many rows it holds), and the columnar engine
// (fixed-size pages as column-major binary blobs in memory, so
// filtered reads decode predicate columns only).
//
// Contract, relied on by Table and by the cross-backend equivalence
// tests:
//
//   - Append preserves insertion order; Scan, Page, Snapshot and Get
//     observe rows in exactly that order.
//   - Get and Scan hand out *borrowed* tuples that must not be
//     retained or modified (Table's cloning read paths detach them).
//   - DeleteWhere keeps survivors in relative order and re-packs
//     positions densely (row i is the i-th surviving row).
//   - Snapshot streams the rows in the escaped-TSV row encoding of
//     WriteTSV, so a table's serialized bytes are identical across
//     backends holding the same rows in the same order.
type Backend interface {
	// Kind names the backend (one of BackendKinds).
	Kind() string
	// Len returns the number of stored rows.
	Len() int
	// Append stores a normalized tuple at position Len().
	Append(tp Tuple) error
	// Get returns the row at position i (borrowed; do not retain or
	// modify). It panics when i is out of range — positions come from
	// the Table's index and are trusted.
	Get(i int) Tuple
	// Scan calls fn for each row in insertion order until fn returns
	// false. The tuple is borrowed.
	Scan(fn func(Tuple) bool)
	// Page returns detached clones of up to limit rows starting at
	// offset; limit <= 0 means "to the end", offsets past the end
	// return nil.
	Page(offset, limit int) []Tuple
	// ScanWhere calls fn for each row satisfying every predicate, in
	// insertion order, until fn returns false. The tuple is borrowed.
	// Backends may prune storage regions (disk pages) that provably
	// contain no match, but must never skip a matching row.
	ScanWhere(preds []Pred, fn func(Tuple) bool)
	// PageWhere returns detached clones of up to limit matching rows
	// starting at the offset-th match (same offset/limit semantics as
	// Page), plus the exact total number of matching rows. Cloning
	// stops once the window fills; counting always runs to the end so
	// total is exact on every backend and plan.
	PageWhere(preds []Pred, offset, limit int) ([]Tuple, int)
	// DeleteWhere removes rows satisfying pred, returning how many
	// were removed.
	DeleteWhere(pred func(Tuple) bool) int
	// Snapshot writes the rows (no header) in the WriteTSV row
	// encoding.
	Snapshot(w io.Writer) error
	// Stats reports the backend's paging counters (zero-valued for
	// the in-memory engine).
	Stats() BackendStats
	// Close releases backend resources (disk pages). The backend is
	// unusable afterwards.
	Close() error
}

// BackendStats are one backend's paging and query-plan counters. The
// paging counters come from the backend itself; the plan counters
// (IndexHits, FullScans) are recorded by the Table-level planner and
// merged in by Table.BackendStats.
type BackendStats struct {
	// Pages counts full row pages: on disk for the disk engine,
	// encoded column-major in memory for the columnar engine.
	Pages int
	// CacheHits / CacheMisses count page-cache lookups. A miss reads
	// (disk) or decodes (columnar) one full page.
	CacheHits, CacheMisses int64
	// PagesSkipped counts pages pruned by zone maps during filtered
	// reads — pages never read, decoded, or cached.
	PagesSkipped int64
	// IndexHits counts filtered reads answered through a hash index;
	// FullScans counts filtered reads that had to scan (on the disk
	// engine, still zone-map pruned).
	IndexHits, FullScans int64
}

// Add accumulates other's counters into s (Pages included: callers
// summing stats across tables want total resident pages). Used when
// aggregating one store's tables or a serving view plus its store.
func (s *BackendStats) Add(other BackendStats) {
	s.Pages += other.Pages
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.PagesSkipped += other.PagesSkipped
	s.IndexHits += other.IndexHits
	s.FullScans += other.FullScans
}

// Engine creates backends — one per table — sharing a storage policy
// (and, for the disk engine, a spill directory).
type Engine interface {
	// Kind names the engine; every backend it creates reports the
	// same kind.
	Kind() string
	// NewBackend creates an empty backend for one table.
	NewBackend(schema Schema) (Backend, error)
	// Close releases engine-wide resources. Backends created by the
	// engine must be closed first.
	Close() error
}

// BackendKinds lists the storage engine names NewEngine accepts, in
// presentation order. The empty string resolves to "memory". Every
// surface that validates an engine name (CLI flags, tenant configs,
// the HTTP admin API) derives its message from this list, so the
// valid set can never drift per layer.
func BackendKinds() []string { return []string{"memory", "disk", "columnar"} }

// ValidBackendKind reports whether kind names a storage engine ("" is
// valid and selects the default in-memory engine).
func ValidBackendKind(kind string) bool {
	if kind == "" {
		return true
	}
	for _, k := range BackendKinds() {
		if k == kind {
			return true
		}
	}
	return false
}

// BackendKindsWant renders BackendKinds for error and usage messages:
// "memory, disk or columnar".
func BackendKindsWant() string {
	ks := BackendKinds()
	return strings.Join(ks[:len(ks)-1], ", ") + " or " + ks[len(ks)-1]
}

// NewEngine resolves an engine kind: "" or "memory" is the in-memory
// engine, "disk" the disk-paged engine with default page geometry
// spilling under dir (a fresh temporary directory when dir is empty),
// "columnar" the in-memory columnar engine with default page
// geometry.
func NewEngine(kind, dir string) (Engine, error) {
	switch kind {
	case "", "memory":
		return MemoryEngine{}, nil
	case "disk":
		return NewDiskEngine(dir, 0, 0)
	case "columnar":
		return NewColumnarEngine(0, 0), nil
	default:
		return nil, fmt.Errorf("kbase: unknown backend %q (want %s)", kind, BackendKindsWant())
	}
}

// MemoryEngine creates in-memory backends — the original
// representation: every row resident, zero I/O.
type MemoryEngine struct{}

// Kind returns "memory".
func (MemoryEngine) Kind() string { return "memory" }

// NewBackend creates an empty in-memory backend.
func (MemoryEngine) NewBackend(schema Schema) (Backend, error) {
	return &memoryBackend{schema: schema}, nil
}

// Close is a no-op.
func (MemoryEngine) Close() error { return nil }

// memoryBackend stores rows in a slice.
type memoryBackend struct {
	schema Schema
	tuples []Tuple
}

func (b *memoryBackend) Kind() string { return "memory" }

func (b *memoryBackend) Len() int { return len(b.tuples) }

func (b *memoryBackend) Append(tp Tuple) error {
	b.tuples = append(b.tuples, tp)
	return nil
}

func (b *memoryBackend) Get(i int) Tuple { return b.tuples[i] }

func (b *memoryBackend) Scan(fn func(Tuple) bool) {
	for _, tp := range b.tuples {
		if !fn(tp) {
			return
		}
	}
}

func (b *memoryBackend) Page(offset, limit int) []Tuple {
	lo, hi := clipPage(len(b.tuples), offset, limit)
	if lo >= hi {
		return nil
	}
	out := make([]Tuple, 0, hi-lo)
	for _, tp := range b.tuples[lo:hi] {
		out = append(out, tp.Clone())
	}
	return out
}

func (b *memoryBackend) ScanWhere(preds []Pred, fn func(Tuple) bool) {
	m := compilePreds(b.schema, preds)
	if m.impossible {
		return
	}
	// Tight loop: no clone, no fmt — match borrows the stored tuple.
	for _, tp := range b.tuples {
		if m.match(tp) && !fn(tp) {
			return
		}
	}
}

func (b *memoryBackend) PageWhere(preds []Pred, offset, limit int) ([]Tuple, int) {
	m := compilePreds(b.schema, preds)
	if m.impossible {
		return nil, 0
	}
	if offset < 0 {
		offset = 0
	}
	var out []Tuple
	total := 0
	for _, tp := range b.tuples {
		if !m.match(tp) {
			continue
		}
		// Clone only in-window matches; keep counting past the window
		// so total is exact.
		if total >= offset && (limit <= 0 || len(out) < limit) {
			out = append(out, tp.Clone())
		}
		total++
	}
	return out, total
}

func (b *memoryBackend) DeleteWhere(pred func(Tuple) bool) int {
	kept := b.tuples[:0]
	deleted := 0
	for _, tp := range b.tuples {
		if pred(tp) {
			deleted++
			continue
		}
		kept = append(kept, tp)
	}
	// Clear the re-packed slice's tail so deleted rows are collectable.
	for i := len(kept); i < len(b.tuples); i++ {
		b.tuples[i] = nil
	}
	b.tuples = kept
	return deleted
}

func (b *memoryBackend) Snapshot(w io.Writer) error {
	for _, tp := range b.tuples {
		if _, err := io.WriteString(w, encodeTupleTSV(tp)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func (b *memoryBackend) Stats() BackendStats { return BackendStats{} }

func (b *memoryBackend) Close() error {
	b.tuples = nil
	return nil
}

// clipPage clips [offset, offset+limit) to n rows, comparing limit
// against the remaining window rather than computing offset+limit,
// which a huge caller-supplied limit would overflow.
func clipPage(n, offset, limit int) (lo, hi int) {
	if offset < 0 {
		offset = 0
	}
	if offset >= n {
		return n, n
	}
	hi = n
	if limit > 0 && limit < hi-offset {
		hi = offset + limit
	}
	return offset, hi
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvAdd folds the bytes of s into the FNV-1a hash h.
func fnvAdd[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// hashKey is the FNV-1a hash of one rendered value, the key of the
// planner's column indexes.
func hashKey(k string) uint64 { return fnvAdd(fnvOffset, k) }

// hashTuple hashes a tuple for the Table's dedup index: FNV-1a over
// each column's rendering (renderCell), each followed by a 0xff byte
// (never part of a number's rendering). Numbers are rendered into a
// stack buffer, so hashing a string/int64/float64 tuple allocates
// nothing. Tuples that render the same hash the same; positions
// sharing a hash are confirmed with rowsEqual, so a collision costs a
// row fetch, never a wrong answer.
func hashTuple(tp Tuple) uint64 {
	var buf [32]byte // fits any int64 or shortest float64 rendering
	h := uint64(fnvOffset)
	for _, v := range tp {
		switch x := v.(type) {
		case string:
			h = fnvAdd(h, x)
		case int64:
			h = fnvAdd(h, strconv.AppendInt(buf[:0], x, 10))
		case float64:
			h = fnvAdd(h, strconv.AppendFloat(buf[:0], x, 'g', -1, 64))
		default:
			h = fnvAdd(h, renderCell(v))
		}
		h = (h ^ 0xff) * fnvPrime
	}
	return h
}

// cellsEqual reports whether two cells render the same. Cells of one
// normalized storage type compare directly: shortest float formatting
// is injective except that every NaN renders "NaN", and 0 and -0
// render differently. Any other pairing (an ill-typed probe, an
// unnormalized type) compares renderings.
func cellsEqual(a, b any) bool {
	switch x := a.(type) {
	case string:
		if y, ok := b.(string); ok {
			return x == y
		}
	case int64:
		if y, ok := b.(int64); ok {
			return x == y
		}
	case float64:
		if y, ok := b.(float64); ok {
			if x != x || y != y {
				return x != x && y != y
			}
			return x == y && math.Signbit(x) == math.Signbit(y)
		}
	}
	return renderCell(a) == renderCell(b)
}

// rowsEqual reports whether two tuples are duplicates under set
// semantics: the same arity and every column rendering the same.
func rowsEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !cellsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
