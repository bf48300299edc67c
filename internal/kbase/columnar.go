package kbase

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// ColumnarEngine creates columnar backends: fixed-size pages held in
// memory as compact column-major binary blobs (see columnar_codec.go)
// instead of row-major []Tuple storage. Three things make its
// filtered reads fast:
//
//   - per-page zone maps (pageZone) prove "no row on this page
//     matches" before a single byte of the page is read or decoded;
//   - PageWhere/ScanWhere decode only the predicate columns to find
//     matching row positions — raw byte/int64 comparisons against the
//     column vectors, no per-cell allocation;
//   - the remaining columns are materialized lazily, only at the
//     surviving positions that land in the requested window, so
//     renderCell never runs for unselected columns.
//
// Blobs are immutable once appended; durable snapshots remain SaveDB's
// TSV (Snapshot re-renders rows from the bit-exact stored values), so
// cross-backend snapshot byte-equality is unchanged. The disk engine
// (disk.go) creates the same backend with its pages spilled to a
// segment file instead of held on the heap.
type ColumnarEngine struct {
	pageRows   int
	cachePages int
}

// NewColumnarEngine creates a columnar engine. pageRows and cachePages
// override the default page geometry when positive; cachePages bounds
// the per-table LRU of fully decoded pages used by the row-oriented
// read paths (Get/Scan/Page).
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
	return newColumnarBackend("columnar", schema, e.pageRows, e.cachePages), nil
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
// false when the table is not columnar-backed (the memory engine).
func (t *Table) ColumnarStats() (ColumnarStats, bool) {
	cb, ok := t.be.(*columnarBackend)
	if !ok {
		return ColumnarStats{}, false
	}
	cb.mu.Lock()
	cs := ColumnarStats{Pages: cb.pages.count(), CellsDecoded: make([]int64, len(cb.decoded))}
	cb.mu.Unlock()
	cs.PagesSkipped = cb.skipped.Load()
	for c := range cb.decoded {
		cs.CellsDecoded[c] = cb.decoded[c].Load()
	}
	return cs, true
}

// columnarBackend stores one table's rows as immutable column-major
// binary page blobs, with the tail (rows beyond the last full page)
// kept as []Tuple until it fills a page. The columnar engine keeps the
// blobs on the heap; the disk engine gives the backend a spill
// directory and its blobs go to one append-only segment file, read
// back one page at a time. Row-oriented reads (Get/Scan/Page) go
// through a small LRU of fully decoded pages; filtered reads bypass
// it, decoding predicate columns only.
//
// mu guards geometry, the tail and the decode cache; callbacks run
// unlocked. Filtered reads and Snapshot work on a snapshot of the
// page set, zones and tail taken under mu (every slice only grows in
// place until DeleteWhere swaps in fresh ones), so the pruning/decode
// counters are atomics.
//
// I/O errors on spilled-page reads and delete rewrites panic with
// context: the segment is process-private transient state, and losing
// it mid-session is unrecoverable in exactly the way losing the
// process's heap would be. Append returns errors normally
// (Table.Insert propagates them).
type columnarBackend struct {
	mu         sync.Mutex
	kind       string
	schema     Schema
	pageRows   int
	cachePages int
	dir        string // spill directory; "" keeps pages on the heap
	segSeq     int    // segment file name counter

	n     int     // total rows
	pages pageSet // sealed pages
	tail  []Tuple // rows past the last full page
	buf   []byte  // spilled-page read buffer for load and DeleteWhere

	// zones holds one pageZone per sealed page, built at seal time from
	// the page's rendered values. Zones live only in memory.
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

func newColumnarBackend(kind string, schema Schema, pageRows, cachePages int) *columnarBackend {
	return &columnarBackend{
		kind:       kind,
		schema:     schema,
		pageRows:   pageRows,
		cachePages: cachePages,
		decoded:    make([]atomic.Int64, schema.Arity()),
		cached:     map[int]*list.Element{},
		lru:        list.New(),
	}
}

// cachedPage is one decoded page in the LRU.
type cachedPage struct {
	page int
	rows []Tuple
}

// pageSet is a backend's sealed pages: encoded blobs on the heap, or
// byte extents of a segment file when the backend spills. Both slices
// only grow in place until DeleteWhere replaces the whole set, so a
// copy taken under mu stays a consistent view of the pages it counts.
type pageSet struct {
	blobs [][]byte // heap pages
	seg   *segment // spilled pages' file; nil until the first page seals
	ends  []int64  // spilled page p occupies [ends[p-1], ends[p]) of seg
}

func (ps pageSet) count() int { return len(ps.blobs) + len(ps.ends) }

// size is the segment's used length: where the next spilled page goes.
func (ps pageSet) size() int64 {
	if len(ps.ends) == 0 {
		return 0
	}
	return ps.ends[len(ps.ends)-1]
}

// read returns page p's blob. A spilled page is read into *buf (grown
// as needed), so the result is only valid until the next read into
// the same buffer; decoding copies every cell out of it.
func (ps pageSet) read(p int, buf *[]byte) ([]byte, error) {
	if ps.seg == nil {
		return ps.blobs[p], nil
	}
	var start int64
	if p > 0 {
		start = ps.ends[p-1]
	}
	n := int(ps.ends[p] - start)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	blob := (*buf)[:n]
	if _, err := ps.seg.f.ReadAt(blob, start); err != nil {
		return nil, err
	}
	return blob, nil
}

// done drops the segment reference a snapshot holds.
func (ps pageSet) done() {
	if ps.seg != nil {
		ps.seg.release()
	}
}

// seal stores one encoded page in ps: on the heap, or written at the
// end of ps's segment (created with the first page) when the backend
// spills. A failed write leaves ps's page count unchanged. Caller
// holds mu.
func (b *columnarBackend) seal(ps *pageSet, blob []byte) error {
	if b.dir == "" {
		ps.blobs = append(ps.blobs, blob)
		return nil
	}
	if ps.seg == nil {
		b.segSeq++
		seg, err := createSegment(filepath.Join(b.dir, fmt.Sprintf("%06d.seg", b.segSeq)))
		if err != nil {
			return err
		}
		ps.seg = seg
	}
	end := ps.size()
	if _, err := ps.seg.f.WriteAt(blob, end); err != nil {
		return err
	}
	ps.ends = append(ps.ends, end+int64(len(blob)))
	return nil
}

// snapshot returns the sealed pages, tail and zones as of now. It
// takes a segment reference the caller drops with pages.done(), so a
// DeleteWhere that retires the segment meanwhile cannot close it under
// the reader.
func (b *columnarBackend) snapshot() (pageSet, []Tuple, []pageZone) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pages.seg != nil {
		b.pages.seg.refs.Add(1)
	}
	return b.pages, b.tail, b.zones
}

func (b *columnarBackend) Kind() string { return b.kind }

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

// readPage returns page p of ps, panicking on a spill read failure.
func (b *columnarBackend) readPage(ps pageSet, p int, buf *[]byte) []byte {
	blob, err := ps.read(p, buf)
	if err != nil {
		panic(fmt.Sprintf("kbase: %s backend for %s lost page %d: %v", b.kind, b.schema.Name, p, err))
	}
	return blob
}

// parse slices blob into its column blocks, panicking on corruption:
// the blobs are process-private state produced by our own encoder, so
// a decode failure is corruption, not an input error.
func (b *columnarBackend) parse(blob []byte) colPage {
	pg, err := parseColumnarPage(blob, b.schema)
	if err != nil {
		panic(fmt.Sprintf("kbase: %s backend for %s: %v", b.kind, b.schema.Name, err))
	}
	return pg
}

// decodePage fully decodes page p of ps.
func (b *columnarBackend) decodePage(ps pageSet, p int, buf *[]byte) []Tuple {
	rows, err := decodeColumnarPage(b.readPage(ps, p, buf), b.schema)
	if err != nil {
		panic(fmt.Sprintf("kbase: %s backend for %s: page %d: %v", b.kind, b.schema.Name, p, err))
	}
	return rows
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
	rows := b.decodePage(b.pages, p, &b.buf)
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
		if err == nil {
			err = b.seal(&b.pages, blob)
		}
		if err != nil {
			b.tail = b.tail[:len(b.tail)-1]
			b.n--
			return fmt.Errorf("kbase: sealing page for %s: %w", b.schema.Name, err)
		}
		b.zones = append(b.zones, buildPageZone(b.schema, b.tail))
		b.tail = nil
	}
	return nil
}

func (b *columnarBackend) Get(i int) Tuple {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("kbase: %s backend for %s: row %d out of range [0,%d)", b.kind, b.schema.Name, i, b.n))
	}
	if full := b.pages.count() * b.pageRows; i >= full {
		return b.tail[i-full]
	}
	return b.load(i / b.pageRows)[i%b.pageRows]
}

func (b *columnarBackend) Scan(fn func(Tuple) bool) {
	// Snapshot the geometry, then decode page by page: fn runs without
	// the lock held, so callbacks may re-enter the table's read paths.
	b.mu.Lock()
	pages, tail := b.pages.count(), b.tail
	b.mu.Unlock()
	for p := 0; p < pages; p++ {
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
	full := b.pages.count() * b.pageRows
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
			panic(fmt.Sprintf("kbase: %s backend for %s: %v", b.kind, b.schema.Name, err))
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
				panic(fmt.Sprintf("kbase: %s backend for %s: %v", b.kind, b.schema.Name, err))
			}
			for i, r := range sel {
				out[i][c] = string(data[offs[r]:offs[r+1]])
			}
		}
		b.countDecoded(c, len(sel))
	}
	return out
}

// matchPages drives both filtered reads over a snapshot of the sealed
// pages: it skips pages whose zones rule the conjunction out, and
// calls fn with each remaining page and its matching positions (never
// empty) until fn returns false. It returns the snapshot's tail for
// the caller to filter row by row, or nil when fn stopped the walk.
func (b *columnarBackend) matchPages(m matcher, fn func(pg colPage, sel []int) bool) []Tuple {
	pages, tail, zones := b.snapshot()
	defer pages.done()
	var buf []byte
	for p := 0; p < pages.count(); p++ {
		if !zones[p].mayMatch(m) {
			b.skipped.Add(1)
			continue
		}
		pg := b.parse(b.readPage(pages, p, &buf))
		if sel := b.matchPage(pg, m); len(sel) > 0 && !fn(pg, sel) {
			return nil
		}
	}
	return tail
}

func (b *columnarBackend) ScanWhere(preds []Pred, fn func(Tuple) bool) {
	m := compilePreds(b.schema, preds)
	if m.impossible {
		return
	}
	tail := b.matchPages(m, func(pg colPage, sel []int) bool {
		for _, tp := range b.materialize(pg, sel) {
			if !fn(tp) {
				return false
			}
		}
		return true
	})
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
	var out []Tuple
	total := 0
	tail := b.matchPages(m, func(pg colPage, sel []int) bool {
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
		return true
	})
	return windowMatches(m, tail, offset, limit, out, total)
}

func (b *columnarBackend) DeleteWhere(pred func(Tuple) bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Stream the survivors into a fresh page set — a fresh segment file
	// when spilled, so the rewrite creates one file, not one per page —
	// one page buffer at a time, then swap. The old pages stay readable
	// for any reader that snapshotted them before the swap: heap blobs
	// are immutable, and a retired segment stays open until its last
	// reader's done.
	var fresh pageSet
	var zones []pageZone
	kept := make([]Tuple, 0, b.pageRows)
	keptN, deleted := 0, 0
	consider := func(tp Tuple) {
		if pred(tp) {
			deleted++
			return
		}
		kept = append(kept, tp)
		keptN++
		if len(kept) == b.pageRows {
			blob, err := encodeColumnarPage(b.schema, kept)
			if err == nil {
				err = b.seal(&fresh, blob)
			}
			if err != nil {
				panic(fmt.Sprintf("kbase: %s backend for %s: delete rewrite: %v", b.kind, b.schema.Name, err))
			}
			zones = append(zones, buildPageZone(b.schema, kept))
			kept = kept[:0]
		}
	}
	for p := 0; p < b.pages.count(); p++ {
		for _, tp := range b.decodePage(b.pages, p, &b.buf) {
			consider(tp)
		}
	}
	for _, tp := range b.tail {
		consider(tp)
	}
	retire := func(ps pageSet) {
		if ps.seg == nil {
			return
		}
		if err := ps.seg.retire(); err != nil {
			panic(fmt.Sprintf("kbase: %s backend for %s: delete swap: %v", b.kind, b.schema.Name, err))
		}
	}
	if deleted == 0 {
		retire(fresh)
		return 0
	}
	old := b.pages
	b.pages = fresh
	b.zones = zones
	b.tail = append([]Tuple(nil), kept...)
	b.n = keptN
	b.invalidate()
	retire(old)
	return deleted
}

func (b *columnarBackend) Snapshot(w io.Writer) error {
	// Stored cells are bit-exact (raw int64/float64 bits, raw string
	// bytes), so re-rendering them through encodeTupleTSV reproduces
	// the exact bytes the memory engine emits for the same rows.
	pages, tail, _ := b.snapshot()
	defer pages.done()
	var buf []byte
	for p := 0; p < pages.count(); p++ {
		blob, err := pages.read(p, &buf)
		if err != nil {
			return fmt.Errorf("kbase: %s backend for %s: snapshot page %d: %w", b.kind, b.schema.Name, p, err)
		}
		rows, err := decodeColumnarPage(blob, b.schema)
		if err != nil {
			return fmt.Errorf("kbase: %s backend for %s: snapshot page %d: %w", b.kind, b.schema.Name, p, err)
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
		Pages:        b.pages.count(),
		CacheHits:    b.hits,
		CacheMisses:  b.misses,
		PagesSkipped: b.skipped.Load(),
	}
}

// pageZones returns the backend's current zone maps (immutable per
// element). SaveDB uses it to emit derived `<table>.zm` sidecars.
func (b *columnarBackend) pageZones() []pageZone {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.zones
}

func (b *columnarBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.invalidate()
	b.pages.done()
	b.pages, b.zones, b.tail, b.n = pageSet{}, nil, nil, 0
	if b.dir == "" {
		return nil
	}
	return os.RemoveAll(b.dir)
}
