package kbase

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// Default paged-engine geometry: rows per page and cached pages per
// table. A table's resident footprint is bounded by
// cachePages*pageRows decoded rows plus one partial tail page,
// independent of table size.
const (
	defaultPageRows   = 128
	defaultCachePages = 16
)

// DiskEngine creates columnar backends whose sealed pages spill to
// disk: one append-only segment file per table under one spill
// directory, with page offsets and zone maps kept in memory. The
// spill is a paging area, not a persistence format — durable
// snapshots remain SaveDB's TSV directories — so segments carry no
// crash-consistency machinery and the whole directory is removed on
// Close.
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

// NewBackend creates an empty spilled columnar backend for one table,
// in its own subdirectory of the spill.
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
	b := newColumnarBackend("disk", schema, e.pageRows, e.cachePages)
	b.dir = dir
	// GC backstop for sessions dropped without Close: the backend is
	// reachable from the stack during every operation on it, so the
	// finalizer can only fire once no reader or writer can ever touch
	// the segment again. (A finalizer higher up — on the table, DB or
	// store — would be unsafe: those can become unreachable while a
	// method still scans this backend.) Explicit Close remains the
	// deterministic cleanup path.
	runtime.SetFinalizer(b, func(fb *columnarBackend) { fb.Close() })
	return b, nil
}

// Close removes the spill directory when the engine created it.
func (e *DiskEngine) Close() error {
	if e.owned {
		return os.RemoveAll(e.dir)
	}
	return nil
}

// segment is one version of a spilled table's page file. Appends
// extend it in place (a page is written past every byte a reader's
// offsets can name, so existing pages never change); DeleteWhere
// writes a successor and retires this one.
//
// refs counts the backend's own reference plus one per in-flight
// reader that snapshotted this version. Retiring unlinks the file at
// once — so the spill directory only ever holds live segments — and
// drops the backend's reference; the descriptor closes when the last
// reader finishes, so a filtered read that began before a DeleteWhere
// still reads its own pages.
type segment struct {
	f    *os.File
	refs atomic.Int32
}

// createSegment creates an empty segment file at path, holding the
// backend's reference.
func createSegment(path string) (*segment, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &segment{f: f}
	s.refs.Store(1)
	return s, nil
}

// release drops one reference, closing the file with the last one.
func (s *segment) release() {
	if s.refs.Add(-1) == 0 {
		s.f.Close() // read-only from here on; nothing to flush
	}
}

// retire unlinks the segment file and drops the backend's reference.
func (s *segment) retire() error {
	err := os.Remove(s.f.Name())
	s.release()
	return err
}
