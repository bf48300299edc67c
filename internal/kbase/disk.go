package kbase

import (
	"bufio"
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Default disk-engine geometry: rows per page and cached pages per
// table. A table's resident footprint is bounded by
// cachePages*pageRows decoded rows plus one partial tail page,
// independent of table size.
const (
	defaultPageRows   = 128
	defaultCachePages = 16
)

// DiskEngine creates disk-paged backends that keep their row pages
// under one spill directory. The spill is a paging area, not a
// persistence format — durable snapshots remain SaveDB's TSV
// directories — so files carry no crash-consistency machinery and the
// whole directory is removed on Close.
type DiskEngine struct {
	dir        string
	pageRows   int
	cachePages int
	owned      bool // engine created dir and removes it on Close

	mu  sync.Mutex
	seq int // per-table subdirectory counter
}

// NewDiskEngine creates a disk engine spilling under dir (a fresh
// os.MkdirTemp directory when dir is empty, removed on Close).
// pageRows and cachePages override the default page geometry when
// positive.
func NewDiskEngine(dir string, pageRows, cachePages int) (*DiskEngine, error) {
	owned := false
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "kbase-spill-")
		if err != nil {
			return nil, fmt.Errorf("kbase: creating spill directory: %w", err)
		}
		owned = true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if pageRows <= 0 {
		pageRows = defaultPageRows
	}
	if cachePages <= 0 {
		cachePages = defaultCachePages
	}
	return &DiskEngine{dir: dir, pageRows: pageRows, cachePages: cachePages, owned: owned}, nil
}

// Kind returns "disk".
func (e *DiskEngine) Kind() string { return "disk" }

// Dir returns the engine's spill directory.
func (e *DiskEngine) Dir() string { return e.dir }

// NewBackend creates an empty disk-paged backend for one table, in
// its own subdirectory of the spill.
func (e *DiskEngine) NewBackend(schema Schema) (Backend, error) {
	e.mu.Lock()
	e.seq++
	name := fmt.Sprintf("t%04d", e.seq)
	e.mu.Unlock()
	if safeTableFile(schema.Name) {
		name += "-" + schema.Name
	}
	dir := filepath.Join(e.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &diskBackend{
		schema:     schema,
		dir:        dir,
		pageRows:   e.pageRows,
		cachePages: e.cachePages,
		cached:     map[int]*list.Element{},
		lru:        list.New(),
	}
	// GC backstop for sessions dropped without Close: the backend is
	// reachable from the stack during every operation on it, so the
	// finalizer can only fire once no reader or writer can ever touch
	// the page files again. (A finalizer higher up — on the table, DB
	// or store — would be unsafe: those can become unreachable while a
	// method still scans this backend.) Explicit Close remains the
	// deterministic cleanup path.
	runtime.SetFinalizer(b, func(fb *diskBackend) { fb.Close() })
	return b, nil
}

// Close removes the spill directory when the engine created it.
func (e *DiskEngine) Close() error {
	if e.owned {
		return os.RemoveAll(e.dir)
	}
	return nil
}

// diskBackend stores one table's rows as fixed-size pages of escaped
// TSV lines on disk — the same row encoding WriteTSV emits, so
// snapshotting is a straight byte copy of the page files. The tail
// (the rows beyond the last full page) stays in memory until it fills
// a page; reads go through a small LRU cache of decoded pages.
//
// The backend is internally locked: the LRU cache mutates on every
// read, so concurrent readers (and the writer) serialize on mu. The
// serving layer never reads store tables concurrently — published
// StoreViews carry their own in-memory state — so the lock is a
// safety net, not a hot path.
//
// I/O errors on reads and deletes panic with context: the spill files
// are process-private transient state, and losing them mid-session is
// unrecoverable in exactly the way losing the process's heap would be.
// Append returns errors normally (Table.Insert propagates them).
type diskBackend struct {
	mu         sync.Mutex
	schema     Schema
	dir        string
	pageRows   int
	cachePages int

	n     int     // total rows
	pages int     // full pages on disk
	tail  []Tuple // rows past the last full page

	// zones holds one pageZone per full page, built when the page is
	// flushed (and rebuilt wholesale on DeleteWhere rewrites). Each
	// element is immutable once appended, so filtered reads may probe
	// a length-snapshot of the slice without holding mu. Zones live
	// only here: the spill holds page files and nothing else.
	zones []pageZone

	cached map[int]*list.Element // page -> lru element
	lru    *list.List            // front = most recent
	hits   int64
	misses int64
	// skipped counts pages pruned by zone maps; atomic because the
	// pruning happens outside mu (mirroring Scan's unlocked callback
	// convention).
	skipped atomic.Int64
}

// cachedPage is one decoded page in the LRU.
type cachedPage struct {
	page int
	rows []Tuple
}

func (b *diskBackend) Kind() string { return "disk" }

func (b *diskBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

func (b *diskBackend) pagePath(p int) string {
	return filepath.Join(b.dir, fmt.Sprintf("p%08d.tsv", p))
}

// writePage encodes rows into the page file at p.
func (b *diskBackend) writePage(p int, rows []Tuple) error {
	return writePageFile(b.pagePath(p), rows)
}

// writePageFile encodes rows into one page file.
func writePageFile(path string, rows []Tuple) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, tp := range rows {
		if _, err := w.WriteString(encodeTupleTSV(tp) + "\n"); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readPage decodes the page file at p (no cache involvement).
func (b *diskBackend) readPage(p int) ([]Tuple, error) {
	body, err := os.ReadFile(b.pagePath(p))
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	rows := make([]Tuple, 0, len(lines))
	for _, line := range lines {
		parts, err := splitTSV(line)
		if err != nil {
			return nil, fmt.Errorf("kbase: page %s: %w", b.pagePath(p), err)
		}
		tp, err := parseTupleFields(b.schema, parts)
		if err != nil {
			return nil, fmt.Errorf("kbase: page %s: %w", b.pagePath(p), err)
		}
		rows = append(rows, tp)
	}
	return rows, nil
}

// load returns page p's decoded rows through the LRU cache. Caller
// holds mu.
func (b *diskBackend) load(p int) []Tuple {
	if el, ok := b.cached[p]; ok {
		b.hits++
		b.lru.MoveToFront(el)
		return el.Value.(*cachedPage).rows
	}
	b.misses++
	rows, err := b.readPage(p)
	if err != nil {
		panic(fmt.Sprintf("kbase: disk backend for %s lost page %d: %v", b.schema.Name, p, err))
	}
	b.cached[p] = b.lru.PushFront(&cachedPage{page: p, rows: rows})
	for b.lru.Len() > b.cachePages {
		old := b.lru.Back()
		b.lru.Remove(old)
		delete(b.cached, old.Value.(*cachedPage).page)
	}
	return rows
}

// invalidate drops the whole page cache. Caller holds mu.
func (b *diskBackend) invalidate() {
	b.cached = map[int]*list.Element{}
	b.lru.Init()
}

func (b *diskBackend) Append(tp Tuple) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tail = append(b.tail, tp)
	b.n++
	if len(b.tail) == b.pageRows {
		if err := b.writePage(b.pages, b.tail); err != nil {
			b.tail = b.tail[:len(b.tail)-1]
			b.n--
			return fmt.Errorf("kbase: flushing page for %s: %w", b.schema.Name, err)
		}
		b.zones = append(b.zones, buildPageZone(b.schema, b.tail))
		b.pages++
		b.tail = nil
	}
	return nil
}

func (b *diskBackend) Get(i int) Tuple {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("kbase: disk backend for %s: row %d out of range [0,%d)", b.schema.Name, i, b.n))
	}
	if full := b.pages * b.pageRows; i >= full {
		return b.tail[i-full]
	}
	return b.load(i / b.pageRows)[i%b.pageRows]
}

func (b *diskBackend) Scan(fn func(Tuple) bool) {
	// Snapshot the geometry, then fetch page by page: fn runs without
	// the lock held, so a callback may call back into the table's read
	// paths (Contains during Compare) without deadlocking.
	b.mu.Lock()
	pages, tail := b.pages, b.tail
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

func (b *diskBackend) Page(offset, limit int) []Tuple {
	b.mu.Lock()
	defer b.mu.Unlock()
	lo, hi := clipPage(b.n, offset, limit)
	if lo >= hi {
		return nil
	}
	out := make([]Tuple, 0, hi-lo)
	full := b.pages * b.pageRows
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

// scanMatches drives both filtered read paths: it walks pages in
// insertion order, consults each page's zone map before loading, and
// calls fn (unlocked, same convention as Scan) for every matching
// row until fn returns false. Pruned pages are never read, decoded,
// or admitted to the LRU cache.
func (b *diskBackend) scanMatches(m matcher, fn func(Tuple) bool) {
	b.mu.Lock()
	pages, tail, zones := b.pages, b.tail, b.zones
	b.mu.Unlock()
	for p := 0; p < pages; p++ {
		if p < len(zones) && !zones[p].mayMatch(m) {
			b.skipped.Add(1)
			continue
		}
		b.mu.Lock()
		rows := b.load(p)
		b.mu.Unlock()
		for _, tp := range rows {
			if m.match(tp) && !fn(tp) {
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

func (b *diskBackend) ScanWhere(preds []Pred, fn func(Tuple) bool) {
	m := compilePreds(b.schema, preds)
	if m.impossible {
		return
	}
	b.scanMatches(m, fn)
}

func (b *diskBackend) PageWhere(preds []Pred, offset, limit int) ([]Tuple, int) {
	m := compilePreds(b.schema, preds)
	if m.impossible {
		return nil, 0
	}
	if offset < 0 {
		offset = 0
	}
	var out []Tuple
	total := 0
	b.scanMatches(m, func(tp Tuple) bool {
		// Clone only in-window matches; keep counting past the window
		// so total is exact (zone maps make the remainder cheap).
		if total >= offset && (limit <= 0 || len(out) < limit) {
			out = append(out, tp.Clone())
		}
		total++
		return true
	})
	return out, total
}

func (b *diskBackend) DeleteWhere(pred func(Tuple) bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Stream the survivors into a fresh page sequence, one page buffer
	// in memory at a time, then swap: the delete never materializes
	// the table.
	tmp := b.dir + ".rewrite"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		panic(fmt.Sprintf("kbase: disk backend for %s: delete rewrite: %v", b.schema.Name, err))
	}
	old := struct {
		dir   string
		pages int
		tail  []Tuple
	}{b.dir, b.pages, b.tail}
	kept := make([]Tuple, 0, b.pageRows)
	newPages, keptN, deleted := 0, 0, 0
	var newZones []pageZone
	flush := func() {
		if err := writePageFile(filepath.Join(tmp, fmt.Sprintf("p%08d.tsv", newPages)), kept); err != nil {
			panic(fmt.Sprintf("kbase: disk backend for %s: delete rewrite: %v", b.schema.Name, err))
		}
		newZones = append(newZones, buildPageZone(b.schema, kept))
		newPages++
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
	for p := 0; p < old.pages; p++ {
		for _, tp := range b.load(p) {
			consider(tp)
		}
	}
	for _, tp := range old.tail {
		consider(tp)
	}
	if deleted == 0 {
		os.RemoveAll(tmp)
		return 0
	}
	if err := os.RemoveAll(old.dir); err != nil {
		panic(fmt.Sprintf("kbase: disk backend for %s: delete swap: %v", b.schema.Name, err))
	}
	if err := os.Rename(tmp, old.dir); err != nil {
		panic(fmt.Sprintf("kbase: disk backend for %s: delete swap: %v", b.schema.Name, err))
	}
	b.pages = newPages
	b.zones = newZones
	b.tail = append([]Tuple(nil), kept...)
	b.n = keptN
	b.invalidate()
	return deleted
}

func (b *diskBackend) Snapshot(w io.Writer) error {
	// Page files hold exactly the WriteTSV row encoding, so the
	// snapshot body is a byte-for-byte concatenation of the pages plus
	// the encoded tail — identical to the in-memory backend's output
	// for the same rows.
	b.mu.Lock()
	pages, tail := b.pages, append([]Tuple(nil), b.tail...)
	b.mu.Unlock()
	for p := 0; p < pages; p++ {
		f, err := os.Open(b.pagePath(p))
		if err != nil {
			return err
		}
		_, err = io.Copy(w, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	for _, tp := range tail {
		if _, err := io.WriteString(w, encodeTupleTSV(tp)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func (b *diskBackend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{
		Pages:        b.pages,
		CacheHits:    b.hits,
		CacheMisses:  b.misses,
		PagesSkipped: b.skipped.Load(),
	}
}

// pageZones returns the backend's current zone maps (immutable per
// element). SaveDB uses it to emit derived `<table>.zm` sidecars.
func (b *diskBackend) pageZones() []pageZone {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.zones
}

func (b *diskBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.invalidate()
	b.tail, b.n, b.pages, b.zones = nil, 0, 0, nil
	return os.RemoveAll(b.dir)
}
