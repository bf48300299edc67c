package kbase

import (
	"container/list"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// ColumnarEngine creates columnar backends: fixed-size pages held in
// memory as compact column-major binary blobs (see columnar_codec.go)
// instead of row-major []Tuple storage. Three things make its
// filtered reads fast:
//
//   - per-column in-page min/max zones (the same pageZone machinery as
//     the disk engine's) prove "no row on this page matches"
//     before a single byte of the page is decoded;
//   - PageWhere/ScanWhere decode only the predicate columns to find
//     matching row positions — raw byte/int64 comparisons against the
//     column vectors, no per-cell allocation;
//   - the remaining columns are materialized lazily, only at the
//     surviving positions that land in the requested window, so
//     renderCell never runs for unselected columns.
//
// Blobs are immutable once appended; durable snapshots remain SaveDB's
// TSV (Snapshot re-renders rows from the bit-exact stored values), so
// cross-backend snapshot byte-equality is unchanged.
type ColumnarEngine struct {
	pageRows   int
	cachePages int
}

// NewColumnarEngine creates a columnar engine. pageRows and cachePages
// override the default page geometry (shared with the disk engine)
// when positive; cachePages bounds the per-table LRU of fully decoded
// pages used by the row-oriented read paths (Get/Scan/Page).
func NewColumnarEngine(pageRows, cachePages int) *ColumnarEngine {
	if pageRows <= 0 {
		pageRows = defaultPageRows
	}
	if cachePages <= 0 {
		cachePages = defaultCachePages
	}
	return &ColumnarEngine{pageRows: pageRows, cachePages: cachePages}
}

// Kind returns "columnar".
func (e *ColumnarEngine) Kind() string { return "columnar" }

// NewBackend creates an empty columnar backend for one table.
func (e *ColumnarEngine) NewBackend(schema Schema) (Backend, error) {
	return &columnarBackend{
		schema:     schema,
		pageRows:   e.pageRows,
		cachePages: e.cachePages,
		decoded:    make([]atomic.Int64, schema.Arity()),
		cached:     map[int]*list.Element{},
		lru:        list.New(),
	}, nil
}

// Close is a no-op: columnar pages live on the heap.
func (e *ColumnarEngine) Close() error { return nil }

// ColumnarStats is the columnar backend's decode accounting, exposed
// for the in-page-pruning tests and benchmarks: it proves filtered
// reads touch only predicate columns plus the materialized window.
type ColumnarStats struct {
	// Pages counts full encoded pages.
	Pages int
	// PagesSkipped counts pages pruned by in-page zones on filtered
	// reads — never parsed or decoded.
	PagesSkipped int64
	// CellsDecoded counts, per schema column, cells examined by
	// predicate evaluation plus cells materialized into tuples (by
	// lazy window materialization or full-page loads). A column that
	// is neither filtered on nor selected stays at its floor.
	CellsDecoded []int64
}

// ColumnarStats returns the table's columnar decode accounting, and
// false when the table is not columnar-backed.
func (t *Table) ColumnarStats() (ColumnarStats, bool) {
	cb, ok := t.be.(*columnarBackend)
	if !ok {
		return ColumnarStats{}, false
	}
	return cb.columnarStats(), true
}

// columnarBackend stores one table's rows as immutable column-major
// binary page blobs in memory, with the tail (rows beyond the last
// full page) kept as []Tuple until it fills a page. Row-oriented
// reads (Get/Scan/Page) go through a small LRU of fully decoded
// pages; filtered reads bypass it, decoding predicate columns only.
//
// Locking mirrors the disk backend: mu guards geometry, the tail and
// the decode cache, callbacks run unlocked, and the pruning/decode
// counters are atomics because filtered reads probe length-snapshots
// of the immutable blob and zone slices without holding mu.
type columnarBackend struct {
	mu         sync.Mutex
	schema     Schema
	pageRows   int
	cachePages int

	n     int      // total rows
	blobs [][]byte // encoded full pages, immutable once appended
	tail  []Tuple  // rows past the last full page

	// zones holds one pageZone per full page, built at flush time from
	// the page's rendered values, exactly as the disk engine does.
	zones []pageZone

	cached map[int]*list.Element // page -> lru element (decoded rows)
	lru    *list.List            // front = most recent
	hits   int64
	misses int64

	skipped atomic.Int64
	// decoded counts cells examined or materialized per column; see
	// ColumnarStats.CellsDecoded.
	decoded []atomic.Int64
}

func (b *columnarBackend) Kind() string { return "columnar" }

func (b *columnarBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// countDecoded charges cells decoded cells to column col.
func (b *columnarBackend) countDecoded(col int, cells int) {
	if cells > 0 {
		b.decoded[col].Add(int64(cells))
	}
}

// parse slices blob into its column blocks, panicking on corruption:
// the blobs are process-private heap state produced by our own
// encoder, so a decode failure is heap corruption, not an I/O error.
func (b *columnarBackend) parse(blob []byte) colPage {
	pg, err := parseColumnarPage(blob, b.schema)
	if err != nil {
		panic(fmt.Sprintf("kbase: columnar backend for %s: %v", b.schema.Name, err))
	}
	return pg
}

// load returns page p's fully decoded rows through the LRU cache.
// Caller holds mu.
func (b *columnarBackend) load(p int) []Tuple {
	if el, ok := b.cached[p]; ok {
		b.hits++
		b.lru.MoveToFront(el)
		return el.Value.(*cachedPage).rows
	}
	b.misses++
	rows, err := decodeColumnarPage(b.blobs[p], b.schema)
	if err != nil {
		panic(fmt.Sprintf("kbase: columnar backend for %s: page %d: %v", b.schema.Name, p, err))
	}
	for c := range b.decoded {
		b.countDecoded(c, len(rows))
	}
	b.cached[p] = b.lru.PushFront(&cachedPage{page: p, rows: rows})
	for b.lru.Len() > b.cachePages {
		old := b.lru.Back()
		b.lru.Remove(old)
		delete(b.cached, old.Value.(*cachedPage).page)
	}
	return rows
}

// invalidate drops the decoded-page cache. Caller holds mu.
func (b *columnarBackend) invalidate() {
	b.cached = map[int]*list.Element{}
	b.lru.Init()
}

func (b *columnarBackend) Append(tp Tuple) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tail = append(b.tail, tp)
	b.n++
	if len(b.tail) == b.pageRows {
		blob, err := encodeColumnarPage(b.schema, b.tail)
		if err != nil {
			b.tail = b.tail[:len(b.tail)-1]
			b.n--
			return fmt.Errorf("kbase: encoding page for %s: %w", b.schema.Name, err)
		}
		b.zones = append(b.zones, buildPageZone(b.schema, b.tail))
		b.blobs = append(b.blobs, blob)
		b.tail = nil
	}
	return nil
}

func (b *columnarBackend) Get(i int) Tuple {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("kbase: columnar backend for %s: row %d out of range [0,%d)", b.schema.Name, i, b.n))
	}
	if full := len(b.blobs) * b.pageRows; i >= full {
		return b.tail[i-full]
	}
	return b.load(i / b.pageRows)[i%b.pageRows]
}

func (b *columnarBackend) Scan(fn func(Tuple) bool) {
	// Snapshot the geometry, then decode page by page: fn runs without
	// the lock held (same convention as the disk engine), so callbacks
	// may re-enter the table's read paths.
	b.mu.Lock()
	blobs, tail := b.blobs, b.tail
	b.mu.Unlock()
	for p := range blobs {
		b.mu.Lock()
		rows := b.load(p)
		b.mu.Unlock()
		for _, tp := range rows {
			if !fn(tp) {
				return
			}
		}
	}
	for _, tp := range tail {
		if !fn(tp) {
			return
		}
	}
}

func (b *columnarBackend) Page(offset, limit int) []Tuple {
	b.mu.Lock()
	defer b.mu.Unlock()
	lo, hi := clipPage(b.n, offset, limit)
	if lo >= hi {
		return nil
	}
	out := make([]Tuple, 0, hi-lo)
	full := len(b.blobs) * b.pageRows
	for i := lo; i < hi; {
		if i >= full {
			out = append(out, b.tail[i-full].Clone())
			i++
			continue
		}
		rows := b.load(i / b.pageRows)
		for k := i % b.pageRows; k < len(rows) && i < hi && i < full; k++ {
			out = append(out, rows[k].Clone())
			i++
		}
	}
	return out
}

// cellPred compiles one predicate against one parsed page into a
// per-row test over the raw column vector. String columns compare
// cell bytes against the probe (the conversion in the comparison does
// not allocate), int columns compare raw int64s, and float columns
// render only the predicate column's cell — never any other column.
func (b *columnarBackend) cellPred(pg colPage, p compiledPred) func(row int) bool {
	blk := pg.blocks[p.col]
	switch b.schema.Columns[p.col].Type {
	case IntCol:
		// compilePreds proved the probe canonical (intOK), else the
		// matcher is impossible and no page is ever evaluated.
		return func(row int) bool { return intColCell(blk, row) == p.intVal }
	case FloatCol:
		return func(row int) bool { return renderCell(floatColCell(blk, row)) == p.want }
	default:
		offs, data, err := stringColIndex(blk, pg.nrows)
		if err != nil {
			panic(fmt.Sprintf("kbase: columnar backend for %s: %v", b.schema.Name, err))
		}
		return func(row int) bool { return string(data[offs[row]:offs[row+1]]) == p.want }
	}
}

// matchPage evaluates the conjunction against one parsed page,
// decoding only predicate columns, and returns the matching row
// positions in page order. Examined cells are charged to the decode
// counters; non-predicate columns are never touched.
func (b *columnarBackend) matchPage(pg colPage, m matcher) []int {
	var sel []int
	for pi, p := range m.preds {
		test := b.cellPred(pg, p)
		if pi == 0 {
			sel = make([]int, 0, pg.nrows)
			for r := 0; r < pg.nrows; r++ {
				if test(r) {
					sel = append(sel, r)
				}
			}
			b.countDecoded(p.col, pg.nrows)
			continue
		}
		b.countDecoded(p.col, len(sel))
		kept := sel[:0]
		for _, r := range sel {
			if test(r) {
				kept = append(kept, r)
			}
		}
		sel = kept
		if len(sel) == 0 {
			return nil
		}
	}
	if len(m.preds) == 0 {
		sel = make([]int, pg.nrows)
		for r := range sel {
			sel[r] = r
		}
	}
	return sel
}

// materialize builds detached tuples for the given (ascending) row
// positions, decoding each column only at those positions — the lazy
// half of a filtered read. renderCell is never involved.
func (b *columnarBackend) materialize(pg colPage, sel []int) []Tuple {
	out := make([]Tuple, len(sel))
	for i := range out {
		out[i] = make(Tuple, len(pg.blocks))
	}
	for c, col := range b.schema.Columns {
		blk := pg.blocks[c]
		switch col.Type {
		case IntCol:
			for i, r := range sel {
				out[i][c] = intColCell(blk, r)
			}
		case FloatCol:
			for i, r := range sel {
				out[i][c] = floatColCell(blk, r)
			}
		default:
			offs, data, err := stringColIndex(blk, pg.nrows)
			if err != nil {
				panic(fmt.Sprintf("kbase: columnar backend for %s: %v", b.schema.Name, err))
			}
			for i, r := range sel {
				out[i][c] = string(data[offs[r]:offs[r+1]])
			}
		}
		b.countDecoded(c, len(sel))
	}
	return out
}

func (b *columnarBackend) ScanWhere(preds []Pred, fn func(Tuple) bool) {
	m := compilePreds(b.schema, preds)
	if m.impossible {
		return
	}
	b.mu.Lock()
	blobs, tail, zones := b.blobs, b.tail, b.zones
	b.mu.Unlock()
	for p, blob := range blobs {
		if p < len(zones) && !zones[p].mayMatch(m) {
			b.skipped.Add(1)
			continue
		}
		pg := b.parse(blob)
		sel := b.matchPage(pg, m)
		if len(sel) == 0 {
			continue
		}
		for _, tp := range b.materialize(pg, sel) {
			if !fn(tp) {
				return
			}
		}
	}
	for _, tp := range tail {
		if m.match(tp) && !fn(tp) {
			return
		}
	}
}

func (b *columnarBackend) PageWhere(preds []Pred, offset, limit int) ([]Tuple, int) {
	m := compilePreds(b.schema, preds)
	if m.impossible {
		return nil, 0
	}
	if offset < 0 {
		offset = 0
	}
	b.mu.Lock()
	blobs, tail, zones := b.blobs, b.tail, b.zones
	b.mu.Unlock()
	var out []Tuple
	total := 0
	for p, blob := range blobs {
		if p < len(zones) && !zones[p].mayMatch(m) {
			b.skipped.Add(1)
			continue
		}
		pg := b.parse(blob)
		sel := b.matchPage(pg, m)
		if len(sel) == 0 {
			continue
		}
		// Matches total..total+len(sel)-1 live on this page; clip the
		// requested window against them and materialize only that slice.
		// Counting always runs to the last page so total stays exact.
		lo := offset - total
		if lo < 0 {
			lo = 0
		}
		hi := len(sel)
		if limit > 0 {
			if remaining := limit - len(out); hi-lo > remaining {
				hi = lo + remaining
			}
		}
		if lo < hi {
			out = append(out, b.materialize(pg, sel[lo:hi])...)
		}
		total += len(sel)
	}
	for _, tp := range tail {
		if !m.match(tp) {
			continue
		}
		if total >= offset && (limit <= 0 || len(out) < limit) {
			out = append(out, tp.Clone())
		}
		total++
	}
	return out, total
}

func (b *columnarBackend) DeleteWhere(pred func(Tuple) bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Rebuild the page sequence from the survivors, one page buffer at
	// a time — the in-memory analogue of the disk engine's streaming
	// rewrite. Old blobs stay valid for any reader that snapshotted
	// them before the swap (they are immutable).
	var newBlobs [][]byte
	var newZones []pageZone
	kept := make([]Tuple, 0, b.pageRows)
	keptN, deleted := 0, 0
	flush := func() {
		blob, err := encodeColumnarPage(b.schema, kept)
		if err != nil {
			panic(fmt.Sprintf("kbase: columnar backend for %s: delete rewrite: %v", b.schema.Name, err))
		}
		newBlobs = append(newBlobs, blob)
		newZones = append(newZones, buildPageZone(b.schema, kept))
		kept = kept[:0]
	}
	consider := func(tp Tuple) {
		if pred(tp) {
			deleted++
			return
		}
		kept = append(kept, tp)
		keptN++
		if len(kept) == b.pageRows {
			flush()
		}
	}
	for _, blob := range b.blobs {
		rows, err := decodeColumnarPage(blob, b.schema)
		if err != nil {
			panic(fmt.Sprintf("kbase: columnar backend for %s: delete rewrite: %v", b.schema.Name, err))
		}
		for _, tp := range rows {
			consider(tp)
		}
	}
	for _, tp := range b.tail {
		consider(tp)
	}
	if deleted == 0 {
		return 0
	}
	b.blobs = newBlobs
	b.zones = newZones
	b.tail = append([]Tuple(nil), kept...)
	b.n = keptN
	b.invalidate()
	return deleted
}

func (b *columnarBackend) Snapshot(w io.Writer) error {
	// Stored cells are bit-exact (raw int64/float64 bits, raw string
	// bytes), so re-rendering them through encodeTupleTSV reproduces
	// the exact bytes the row-major engines emit for the same rows.
	b.mu.Lock()
	blobs, tail := b.blobs, append([]Tuple(nil), b.tail...)
	b.mu.Unlock()
	for p, blob := range blobs {
		rows, err := decodeColumnarPage(blob, b.schema)
		if err != nil {
			return fmt.Errorf("kbase: columnar backend for %s: snapshot page %d: %w", b.schema.Name, p, err)
		}
		for _, tp := range rows {
			if _, err := io.WriteString(w, encodeTupleTSV(tp)+"\n"); err != nil {
				return err
			}
		}
	}
	for _, tp := range tail {
		if _, err := io.WriteString(w, encodeTupleTSV(tp)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func (b *columnarBackend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{
		Pages:        len(b.blobs),
		CacheHits:    b.hits,
		CacheMisses:  b.misses,
		PagesSkipped: b.skipped.Load(),
	}
}

// columnarStats snapshots the decode accounting.
func (b *columnarBackend) columnarStats() ColumnarStats {
	b.mu.Lock()
	pages := len(b.blobs)
	b.mu.Unlock()
	cs := ColumnarStats{
		Pages:        pages,
		PagesSkipped: b.skipped.Load(),
		CellsDecoded: make([]int64, len(b.decoded)),
	}
	for c := range b.decoded {
		cs.CellsDecoded[c] = b.decoded[c].Load()
	}
	return cs
}

func (b *columnarBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.invalidate()
	b.blobs, b.zones, b.tail, b.n = nil, nil, nil, 0
	return nil
}
