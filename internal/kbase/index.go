package kbase

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Lazy secondary hash indexes and the tiny planner that routes each
// filtered read to the cheapest access path:
//
//	index → zone-map scan → full scan
//
// An index maps fnv64(rendered column value) → ascending row
// positions. Columns become index candidates ("hot") either
// explicitly via Table.EnsureIndex or automatically once a column has
// been filtered on autoIndexAfter times; the index itself is built on
// the first filtered read after that, and only while the table is at
// most maxIndexedRows long (the postings map costs ~16 bytes/row).
// Every mutation (Insert, Delete, DeleteWhere) drops built indexes —
// positions shift on deletes and appends would leave the postings
// stale — while keeping the hot marks, so the next filtered read
// rebuilds. Planner state lives behind its own mutex because filtered
// reads arrive concurrently from lock-free StoreView readers.
//
// Plans never change results: the index path visits candidate
// positions in ascending (= insertion) order and verifies every row
// against the full compiled conjunction (hash collisions and the
// other predicates), so it emits exactly the rows a scan would, in
// the same order. The scan path delegates to the backend, where the
// paged engines prune pages through zone maps.
const autoIndexAfter = 2

// maxIndexedRows caps index builds; a var so tests can lower it.
var maxIndexedRows = 1 << 20

// colIndex is one built column index.
type colIndex struct {
	postings map[uint64][]int // fnv64(rendered value) -> ascending positions
}

// planner is a table's query-planning state.
type planner struct {
	mu   sync.Mutex
	auto bool              // heat-based hot marking enabled
	heat map[int]int       // filtered-read count per column
	hot  map[int]bool      // columns to index on next filtered read
	idx  map[int]*colIndex // built indexes

	// mayIndex is set (under mu) before an index build scans the
	// backend and cleared by the invalidate that drops the indexes, so
	// a writer reading false skips mu entirely. That is safe: the
	// writer's row went in under the backend's lock before the load,
	// so any build whose flag store the load missed scans after it.
	mayIndex atomic.Bool

	indexHits, fullScans int64
}

func newPlanner() *planner {
	return &planner{auto: true, heat: map[int]int{}, hot: map[int]bool{}, idx: map[int]*colIndex{}}
}

// invalidate drops built indexes (hot marks and heat survive, so the
// next filtered read rebuilds). Called on every mutation.
func (p *planner) invalidate() {
	if !p.mayIndex.Load() {
		return
	}
	p.mu.Lock()
	clear(p.idx)
	p.mayIndex.Store(false)
	p.mu.Unlock()
}

// EnsureIndex marks the named column as hot: its hash index is built
// on the next filtered read touching it (and rebuilt after mutations).
func (t *Table) EnsureIndex(col string) error {
	c := t.schema.ColIndex(col)
	if c < 0 {
		return fmt.Errorf("kbase: %s has no column %q", t.schema.Name, col)
	}
	t.plan.mu.Lock()
	t.plan.hot[c] = true
	t.plan.mu.Unlock()
	return nil
}

// SetAutoIndex toggles heat-based index selection (on by default):
// when enabled, a column filtered on autoIndexAfter times is marked
// hot automatically.
func (t *Table) SetAutoIndex(on bool) {
	t.plan.mu.Lock()
	t.plan.auto = on
	t.plan.mu.Unlock()
}

// choosePlan records the filtered read in the heat map, builds any
// newly-eligible index, and returns the index to drive the read with
// (nil → scan plan). Deterministic: the lowest-numbered predicate
// column with an index wins.
func (t *Table) choosePlan(m matcher) (*colIndex, compiledPred, bool) {
	p := t.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cp := range m.preds {
		p.heat[cp.col]++
		if p.auto && p.heat[cp.col] >= autoIndexAfter {
			p.hot[cp.col] = true
		}
	}
	for _, cp := range m.preds {
		if p.idx[cp.col] != nil {
			p.indexHits++
			return p.idx[cp.col], cp, true
		}
	}
	for _, cp := range m.preds {
		if p.hot[cp.col] && t.be.Len() <= maxIndexedRows {
			p.mayIndex.Store(true)
			ci := buildColIndex(t.be, cp.col)
			p.idx[cp.col] = ci
			p.indexHits++
			return ci, cp, true
		}
	}
	p.fullScans++
	return nil, compiledPred{}, false
}

// buildColIndex scans the backend once, hashing one column's rendered
// values into a postings map.
func buildColIndex(be Backend, col int) *colIndex {
	ci := &colIndex{postings: make(map[uint64][]int)}
	pos := 0
	be.Scan(func(tp Tuple) bool {
		h := hashKey(renderCell(tp[col]))
		ci.postings[h] = append(ci.postings[h], pos)
		pos++
		return true
	})
	return ci
}

// ScanWhere calls fn for every tuple satisfying all predicates, in
// insertion order, until fn returns false. The tuple is borrowed,
// like Scan's. The planner may answer through a hash index or a
// (zone-map pruned) backend scan; both emit identical rows.
func (t *Table) ScanWhere(preds []Pred, fn func(Tuple) bool) {
	if len(preds) == 0 {
		t.be.Scan(fn)
		return
	}
	m := compilePreds(t.schema, preds)
	if m.impossible {
		return
	}
	if ci, cp, ok := t.choosePlan(m); ok {
		for _, pos := range ci.postings[hashKey(cp.want)] {
			tp := t.be.Get(pos)
			if m.match(tp) && !fn(tp) {
				return
			}
		}
		return
	}
	t.be.ScanWhere(preds, fn)
}

// PlanInfo describes how one filtered read was answered, for slow-
// query logging and tracing. Plan is one of "unfiltered" (no
// predicates), "impossible" (a predicate names a missing column),
// "index" (hash-index probe) or "scan" (backend scan, zone-map
// pruned on the paged engines). PagesSkipped is the read's zone-map
// pruning delta — a best-effort sample of the backend's counter
// around the read, 0 for in-memory backends.
type PlanInfo struct {
	Plan         string
	PagesSkipped int64
}

// PageWhere returns detached clones of up to limit matching tuples
// starting at the offset-th match (limit <= 0 means "to the end"),
// plus the exact total number of matches — the pushed-down form of
// the serving layer's filter-then-paginate read. Results are
// bit-identical across backends and plans; only the work differs.
func (t *Table) PageWhere(preds []Pred, offset, limit int) ([]Tuple, int) {
	out, total, _ := t.PageWhereInfo(preds, offset, limit)
	return out, total
}

// PageWhereInfo is PageWhere plus a PlanInfo describing the access
// path taken, so callers can log slow filtered reads with the plan
// that produced them.
func (t *Table) PageWhereInfo(preds []Pred, offset, limit int) ([]Tuple, int, PlanInfo) {
	if len(preds) == 0 {
		return t.be.Page(offset, limit), t.be.Len(), PlanInfo{Plan: "unfiltered"}
	}
	m := compilePreds(t.schema, preds)
	if m.impossible {
		return nil, 0, PlanInfo{Plan: "impossible"}
	}
	if ci, cp, ok := t.choosePlan(m); ok {
		if offset < 0 {
			offset = 0
		}
		var out []Tuple
		total := 0
		for _, pos := range ci.postings[hashKey(cp.want)] {
			tp := t.be.Get(pos)
			if !m.match(tp) {
				continue
			}
			if total >= offset && (limit <= 0 || len(out) < limit) {
				out = append(out, tp.Clone())
			}
			total++
		}
		return out, total, PlanInfo{Plan: "index"}
	}
	before := t.be.Stats().PagesSkipped
	out, total := t.be.PageWhere(preds, offset, limit)
	return out, total, PlanInfo{Plan: "scan", PagesSkipped: t.be.Stats().PagesSkipped - before}
}
