package kbase

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// whereSchema is the filtered-read test relation: a unique part id, a
// low-cardinality group (zone maps prune on it), an int and a float.
func whereSchema(t *testing.T) Schema {
	t.Helper()
	return mustSchema(t, "widgets", "part", "grp", "n:integer", "score:float")
}

// fillWidgets inserts n deterministic rows: part "p<i>" unique, grp
// "g<i/8>" clustered so whole disk pages share a group, n = i,
// score = i/2.0.
func fillWidgets(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		added, err := tbl.Insert(Tuple{fmt.Sprintf("p%03d", i), fmt.Sprintf("g%d", i/8), i, float64(i) / 2})
		if err != nil || !added {
			t.Fatalf("insert %d: added=%v err=%v", i, added, err)
		}
	}
}

// legacyFilterPage reproduces the serving layer's pre-pushdown read:
// full Scan, fmt.Sprint per cell, materialize matches, then slice the
// window. It is the semantic reference every plan must match
// bit-for-bit.
func legacyFilterPage(tbl *Table, preds []Pred, offset, limit int) ([]Tuple, int) {
	var matches []Tuple
	tbl.Scan(func(tp Tuple) bool {
		for _, p := range preds {
			if p.Col < 0 || p.Col >= len(tp) || fmt.Sprint(tp[p.Col]) != p.Want {
				return true
			}
		}
		matches = append(matches, tp.Clone())
		return true
	})
	total := len(matches)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	hi := total
	if limit > 0 && limit < hi-offset {
		hi = offset + limit
	}
	window := matches[offset:hi]
	if len(window) == 0 {
		return nil, total
	}
	return window, total
}

// whereConfig is one engine+plan configuration of the equivalence
// grid.
type whereConfig struct {
	name  string
	make  func(t *testing.T) *Table
	setup func(t *testing.T, tbl *Table) // plan knobs after (re)build
}

func whereConfigs(t *testing.T) []whereConfig {
	t.Helper()
	newDisk := func(t *testing.T) *Table {
		engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { engine.Close() })
		return newBackedTable(t, engine, whereSchema(t))
	}
	newColumnar := func(t *testing.T) *Table {
		return newBackedTable(t, NewColumnarEngine(4, 2), whereSchema(t))
	}
	return []whereConfig{
		{
			name: "memory",
			make: func(t *testing.T) *Table { return newBackedTable(t, MemoryEngine{}, whereSchema(t)) },
		},
		{
			// Auto planner: early reads scan, hot columns flip to index
			// plans mid-grid — results must not move.
			name: "disk",
			make: newDisk,
		},
		{
			name:  "disk+index",
			make:  newDisk,
			setup: func(t *testing.T, tbl *Table) { mustEnsureIndex(t, tbl, "grp", "part", "n", "score") },
		},
		{
			name:  "disk+zone-map-only",
			make:  newDisk,
			setup: func(t *testing.T, tbl *Table) { tbl.SetAutoIndex(false) },
		},
		{
			// Same three plan shapes on the columnar engine: auto planner
			// flips, forced indexes, and pure lazy-decode scans.
			name: "columnar",
			make: newColumnar,
		},
		{
			name:  "columnar+index",
			make:  newColumnar,
			setup: func(t *testing.T, tbl *Table) { mustEnsureIndex(t, tbl, "grp", "part", "n", "score") },
		},
		{
			name:  "columnar+zone-map-only",
			make:  newColumnar,
			setup: func(t *testing.T, tbl *Table) { tbl.SetAutoIndex(false) },
		},
	}
}

func mustEnsureIndex(t *testing.T, tbl *Table, cols ...string) {
	t.Helper()
	for _, c := range cols {
		if err := tbl.EnsureIndex(c); err != nil {
			t.Fatal(err)
		}
	}
}

// whereGrid exercises every filter/pagination combination against the
// legacy reference and fails on the first divergence.
func whereGrid(t *testing.T, ref, tbl *Table, stage string) {
	t.Helper()
	predSets := [][]Pred{
		{{Col: 1, Want: "g1"}},                         // clustered: zone maps prune
		{{Col: 0, Want: "p010"}},                       // unique value
		{{Col: 2, Want: "17"}},                         // int equality
		{{Col: 3, Want: "3.5"}},                        // float equality (rendered)
		{{Col: 1, Want: "g2"}, {Col: 2, Want: "18"}},   // conjunction
		{{Col: 1, Want: "nope"}},                       // no matches
		{{Col: 2, Want: "007"}},                        // non-canonical int probe
		{{Col: 2, Want: "x"}},                          // unparsable int probe
		{{Col: 1, Want: "g0"}, {Col: 0, Want: "p099"}}, // cross-page contradiction
		{{Col: 2, Want: "17"}, {Col: 1, Want: "g2"}},   // caller order reversed
		{}, // empty conjunction
	}
	pages := []struct{ offset, limit int }{
		{0, 0}, {0, -1}, {0, 1}, {0, 3}, {1, 2}, {3, 100}, {-2, 2}, {1000, 5},
	}
	for pi, preds := range predSets {
		// ScanWhere equivalence (borrowed tuples, full result).
		var got []Tuple
		tbl.ScanWhere(preds, func(tp Tuple) bool {
			got = append(got, tp.Clone())
			return true
		})
		want, _ := legacyFilterPage(ref, preds, 0, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ScanWhere preds#%d: got %v want %v", stage, pi, got, want)
		}
		for _, pg := range pages {
			gotRows, gotTotal := tbl.PageWhere(preds, pg.offset, pg.limit)
			wantRows, wantTotal := legacyFilterPage(ref, preds, pg.offset, pg.limit)
			if gotTotal != wantTotal || !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("%s: PageWhere preds#%d offset=%d limit=%d: got (%v, %d) want (%v, %d)",
					stage, pi, pg.offset, pg.limit, gotRows, gotTotal, wantRows, wantTotal)
			}
		}
	}
}

// TestFilteredReadEquivalence proves every engine+plan configuration
// returns bit-identical filtered reads through initial fill,
// DeleteWhere re-pack, and snapshot restore — the tentpole's
// engine-invariance contract.
func TestFilteredReadEquivalence(t *testing.T) {
	const rows = 40 // 10 pages at pageRows=4, plus no tail; groups span 5 values
	ref := newBackedTable(t, MemoryEngine{}, whereSchema(t))
	fillWidgets(t, ref, rows)

	for _, cfg := range whereConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			tbl := cfg.make(t)
			fillWidgets(t, tbl, rows)
			if cfg.setup != nil {
				cfg.setup(t, tbl)
			}
			whereGrid(t, ref, tbl, "fill")
			// Run the grid twice: the auto config flips hot columns to
			// index plans between passes, which must not change results.
			whereGrid(t, ref, tbl, "fill-repeat")

			// DeleteWhere re-pack: drop every third row, zone maps and
			// indexes rebuild.
			refDel := newBackedTable(t, MemoryEngine{}, whereSchema(t))
			drop := func(tp Tuple) bool { return tp[2].(int64)%3 == 0 }
			ref.Scan(func(tp Tuple) bool {
				if !drop(tp) {
					if _, err := refDel.Insert(tp.Clone()); err != nil {
						t.Fatal(err)
					}
				}
				return true
			})
			if n := tbl.DeleteWhere(drop); n == 0 {
				t.Fatal("DeleteWhere removed nothing")
			}
			if cfg.setup != nil {
				cfg.setup(t, tbl)
			}
			whereGrid(t, refDel, tbl, "post-delete")

			// Snapshot restore: SaveDB + LoadDBWith through the same
			// engine kind, then re-run the grid on the restored table.
			db := NewDB()
			if err := db.Attach(tbl); err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(t.TempDir(), "snap")
			if err := SaveDB(db, snap); err != nil {
				t.Fatal(err)
			}
			var engine Engine = MemoryEngine{}
			switch tbl.BackendKind() {
			case "disk":
				var err error
				engine, err = NewDiskEngine(filepath.Join(t.TempDir(), "spill2"), 4, 2)
				if err != nil {
					t.Fatal(err)
				}
			case "columnar":
				engine = NewColumnarEngine(4, 2)
			}
			restored, err := LoadDBWith(snap, engine)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			rt := restored.Table("widgets")
			if rt == nil {
				t.Fatal("restored snapshot lost widgets")
			}
			if cfg.setup != nil {
				cfg.setup(t, rt)
			}
			whereGrid(t, refDel, rt, "post-restore")
		})
	}
}

// TestZoneMapSkipsPages is the acceptance-criteria assertion: a
// selective filtered read over a multi-page disk table prunes pages
// (PagesSkipped > 0) without losing rows, and pruned pages never
// enter the LRU cache.
func TestZoneMapSkipsPages(t *testing.T) {
	engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	tbl := newBackedTable(t, engine, whereSchema(t))
	tbl.SetAutoIndex(false)
	fillWidgets(t, tbl, 64) // 16 pages, grp g0..g7 → 2 pages per group
	before := tbl.BackendStats()
	rows, total := tbl.PageWhere([]Pred{{Col: 1, Want: "g3"}}, 0, 0)
	if total != 8 || len(rows) != 8 {
		t.Fatalf("PageWhere(g3): %d rows, total %d", len(rows), total)
	}
	after := tbl.BackendStats()
	if after.PagesSkipped <= before.PagesSkipped {
		t.Fatalf("PagesSkipped did not grow: before=%d after=%d", before.PagesSkipped, after.PagesSkipped)
	}
	// 16 pages, only g3's 2 may be read: 14 pruned.
	if got := after.PagesSkipped - before.PagesSkipped; got != 14 {
		t.Fatalf("PagesSkipped delta = %d, want 14", got)
	}
	// Pruned pages must not pollute the cache: only g3's 2 pages were
	// ever loaded.
	if misses := after.CacheMisses - before.CacheMisses; misses > 2 {
		t.Fatalf("filtered read decoded %d pages, want <= 2", misses)
	}
	if after.FullScans != before.FullScans+1 {
		t.Fatalf("FullScans = %d, want %d", after.FullScans, before.FullScans+1)
	}
}

// TestIndexLifecycle covers lazy builds, heat-based auto selection,
// invalidation on mutation, and the size cap.
func TestIndexLifecycle(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine Engine) {
		tbl := newBackedTable(t, engine, whereSchema(t))
		fillWidgets(t, tbl, 24)

		// EnsureIndex: first filtered read builds and uses the index.
		mustEnsureIndex(t, tbl, "grp")
		rows, total := tbl.PageWhere([]Pred{{Col: 1, Want: "g1"}}, 0, 0)
		if total != 8 || len(rows) != 8 {
			t.Fatalf("indexed read: %d rows, total %d", len(rows), total)
		}
		if st := tbl.BackendStats(); st.IndexHits != 1 || st.FullScans != 0 {
			t.Fatalf("after indexed read: hits=%d scans=%d", st.IndexHits, st.FullScans)
		}

		// Mutation invalidates; the next read rebuilds and stays right.
		if added, err := tbl.Insert(Tuple{"extra", "g1", 99, 0.5}); err != nil || !added {
			t.Fatalf("insert: %v %v", added, err)
		}
		tbl.plan.mu.Lock()
		if len(tbl.plan.idx) != 0 {
			tbl.plan.mu.Unlock()
			t.Fatal("insert did not invalidate built indexes")
		}
		tbl.plan.mu.Unlock()
		rows, total = tbl.PageWhere([]Pred{{Col: 1, Want: "g1"}}, 0, 0)
		if total != 9 || len(rows) != 9 || rows[8][0] != "extra" {
			t.Fatalf("post-insert indexed read: %d rows, total %d", len(rows), total)
		}

		// Heat-based auto selection: a cold column scans twice, then
		// flips to an index plan.
		st0 := tbl.BackendStats()
		for i := 0; i < 3; i++ {
			if _, total := tbl.PageWhere([]Pred{{Col: 0, Want: "p005"}}, 0, 0); total != 1 {
				t.Fatalf("read %d: total %d", i, total)
			}
		}
		st1 := tbl.BackendStats()
		if scans := st1.FullScans - st0.FullScans; scans != 1 {
			t.Fatalf("auto-heat full scans = %d, want 1 (reads 2..3 indexed)", scans)
		}

		// Size cap: an over-cap table never builds, every read scans.
		old := maxIndexedRows
		maxIndexedRows = 4
		defer func() { maxIndexedRows = old }()
		big := newBackedTable(t, engine, mustSchema(t, "caps", "part", "n:integer"))
		fillParts(t, big, 10)
		mustEnsureIndex(t, big, "part")
		for i := 0; i < 3; i++ {
			if _, total := big.PageWhere([]Pred{{Col: 0, Want: "p03"}}, 0, 0); total != 1 {
				t.Fatalf("capped read %d: total %d", i, total)
			}
		}
		if st := big.BackendStats(); st.IndexHits != 0 || st.FullScans != 3 {
			t.Fatalf("capped table: hits=%d scans=%d", st.IndexHits, st.FullScans)
		}
	})
}

// TestPageZonesMatchPageFiles checks every in-memory zone map against
// a zone rebuilt from its page as decoded from the segment file,
// through appends and a DeleteWhere rewrite, and that the table's
// spill directory holds exactly one segment whose size is the sum of
// the page lengths.
func TestPageZonesMatchPageFiles(t *testing.T) {
	engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	tbl := newBackedTable(t, engine, whereSchema(t))
	fillWidgets(t, tbl, 26) // 6 pages + 2-row tail

	check := func(stage string, pages int) {
		be := tbl.be.(*columnarBackend)
		zones := be.pageZones()
		if len(zones) != pages || be.Stats().Pages != pages {
			t.Fatalf("%s: %d zones for %d pages, want %d", stage, len(zones), be.Stats().Pages, pages)
		}
		var buf []byte
		for p, got := range zones {
			blob, err := be.pages.read(p, &buf)
			if err != nil {
				t.Fatalf("%s: page %d: %v", stage, p, err)
			}
			rows, err := decodeColumnarPage(blob, be.schema)
			if err != nil {
				t.Fatalf("%s: page %d: %v", stage, p, err)
			}
			if want := buildPageZone(be.schema, rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: page %d zone %v, segment page gives %v", stage, p, got, want)
			}
		}
		entries, err := os.ReadDir(be.dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".seg") {
			t.Fatalf("%s: spill holds %v, want one segment file", stage, entries)
		}
		info, err := entries[0].Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != be.pages.size() {
			t.Fatalf("%s: segment is %d bytes, pages sum to %d", stage, info.Size(), be.pages.size())
		}
	}
	check("fill", 6)
	if n := tbl.DeleteWhere(func(tp Tuple) bool { return tp[2].(int64)%2 == 0 }); n != 13 {
		t.Fatalf("DeleteWhere removed %d", n)
	}
	check("post-delete", 3)
}

// TestSpilledScanWhereSurvivesDeleteWhere pins snapshot isolation on a
// spilled table: a ScanWhere whose callback deletes rows from the same
// table still sees every row of the snapshot it started with, reading
// pages from the segment the delete retired.
func TestSpilledScanWhereSurvivesDeleteWhere(t *testing.T) {
	engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	tbl := newBackedTable(t, engine, whereSchema(t))
	tbl.SetAutoIndex(false) // the backend scan, not an index plan
	fillWidgets(t, tbl, 26)

	preds := []Pred{{Col: 1, Want: "g1"}}
	want, _ := legacyFilterPage(tbl, preds, 0, 0)
	var got []Tuple
	tbl.ScanWhere(preds, func(tp Tuple) bool {
		if len(got) == 0 {
			if n := tbl.DeleteWhere(func(Tuple) bool { return true }); n != 26 {
				t.Fatalf("DeleteWhere inside ScanWhere removed %d", n)
			}
		}
		got = append(got, tp.Clone())
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanWhere across DeleteWhere: got %v, want %v", got, want)
	}
	if tbl.Len() != 0 {
		t.Fatalf("table holds %d rows after delete-all", tbl.Len())
	}
}

// TestSpilledAppendRollsBackFailedWrite checks that a segment write
// failure fails the page-sealing Append and rolls it back: the row
// count, pages and tail are as before, and the table keeps working
// once writes succeed again.
func TestSpilledAppendRollsBackFailedWrite(t *testing.T) {
	engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	tbl := newBackedTable(t, engine, mustSchema(t, "r", "part", "n:integer"))
	fillParts(t, tbl, 7) // 1 page + 3-row tail
	be := tbl.be.(*columnarBackend)

	// Swap in a read-only handle on the same file: reads still work,
	// every write fails.
	seg := be.pages.seg
	writable := seg.f
	ro, err := os.Open(writable.Name())
	if err != nil {
		t.Fatal(err)
	}
	seg.f = ro
	if _, err := tbl.Insert(Tuple{"p07", 7}); err == nil {
		t.Fatal("Insert sealing a page onto a read-only segment did not fail")
	}
	if tbl.Len() != 7 || be.Stats().Pages != 1 || len(be.tail) != 3 || tbl.Contains(Tuple{"p07", 7}) {
		t.Fatalf("failed Append not rolled back: len=%d pages=%d tail=%d", tbl.Len(), be.Stats().Pages, len(be.tail))
	}
	if got := partsOf(tbl.Tuples()); len(got) != 7 || got[6] != "p06" {
		t.Fatalf("rows after failed Append: %v", got)
	}

	seg.f = writable
	ro.Close()
	if _, err := tbl.Insert(Tuple{"p07", 7}); err != nil {
		t.Fatalf("Insert after recovery: %v", err)
	}
	if tbl.Len() != 8 || be.Stats().Pages != 2 {
		t.Fatalf("after recovery: len=%d pages=%d", tbl.Len(), be.Stats().Pages)
	}
	if rows, total := tbl.PageWhere([]Pred{{Col: 0, Want: "p07"}}, 0, 0); total != 1 || rows[0][1] != int64(7) {
		t.Fatalf("PageWhere(p07) after recovery: %v, %d", rows, total)
	}
}

// TestSaveDBWritesZoneSidecar checks disk-backed snapshots carry the
// derived <table>.zm sidecar, memory snapshots don't, and LoadDB
// ignores it either way.
func TestSaveDBWritesZoneSidecar(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine Engine) {
		db := NewDBWith(engine)
		tbl, err := db.Create(whereSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		fillWidgets(t, tbl, 20)
		snap := filepath.Join(t.TempDir(), "snap")
		if err := SaveDB(db, snap); err != nil {
			t.Fatal(err)
		}
		_, statErr := os.Stat(filepath.Join(snap, "widgets.zm"))
		if engine.Kind() == "disk" && statErr != nil {
			t.Fatalf("disk snapshot missing widgets.zm: %v", statErr)
		}
		if engine.Kind() == "memory" && statErr == nil {
			t.Fatal("memory snapshot grew a widgets.zm sidecar")
		}
		restored, err := LoadDB(snap)
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		if got := restored.Table("widgets").Len(); got != 20 {
			t.Fatalf("restored %d rows", got)
		}
	})
}

// TestMatcherRenderedEquality pins the rendered-equality contract on
// the adversarial numeric cases: pushdown must agree with
// fmt.Sprint-based filtering for NaN, negative zero, exponent-form
// floats, and non-canonical integer probes.
func TestMatcherRenderedEquality(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine Engine) {
		tbl := newBackedTable(t, engine, mustSchema(t, "nums", "tag", "n:integer", "f:float"))
		rows := []Tuple{
			{"nan", 1, math.NaN()},
			{"negzero", 2, math.Copysign(0, -1)},
			{"zero", 3, 0.0},
			{"exp", 4, 1e21},
			{"neg", -7, -1.5},
		}
		for _, tp := range rows {
			if _, err := tbl.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		cases := []struct {
			pred Pred
			want []string
		}{
			{Pred{Col: 2, Want: "NaN"}, []string{"nan"}},
			{Pred{Col: 2, Want: "-0"}, []string{"negzero"}},
			{Pred{Col: 2, Want: "0"}, []string{"zero"}},
			{Pred{Col: 2, Want: "1e+21"}, []string{"exp"}},
			{Pred{Col: 2, Want: "1000000000000000000000"}, nil},
			{Pred{Col: 1, Want: "-7"}, []string{"neg"}},
			{Pred{Col: 1, Want: "007"}, nil},
			{Pred{Col: 1, Want: "+1"}, nil},
			{Pred{Col: 1, Want: "1.0"}, nil},
			{Pred{Col: 99, Want: "1"}, nil},
		}
		for _, c := range cases {
			got, total := tbl.PageWhere([]Pred{c.pred}, 0, 0)
			if total != len(c.want) {
				t.Fatalf("pred %+v: total %d, want %d", c.pred, total, len(c.want))
			}
			if !reflect.DeepEqual(partsOf(got), append([]string{}, c.want...)) && len(c.want) > 0 {
				t.Fatalf("pred %+v: got %v want %v", c.pred, partsOf(got), c.want)
			}
			// And the legacy reference agrees. Compare the encoded rows,
			// not the raw tuples: reflect.DeepEqual is false on NaN cells
			// even when both sides hold the identical row.
			wantRows, wantTotal := legacyFilterPage(tbl, []Pred{c.pred}, 0, 0)
			render := func(rows []Tuple) []string {
				out := make([]string, len(rows))
				for i, tp := range rows {
					out[i] = encodeTupleTSV(tp)
				}
				return out
			}
			if wantTotal != total || !reflect.DeepEqual(render(got), render(wantRows)) {
				t.Fatalf("pred %+v: pushdown (%v,%d) != legacy (%v,%d)", c.pred, got, total, wantRows, wantTotal)
			}
		}
	})
}

// TestFilteredReadsConcurrentIngest races filtered readers (index and
// scan plans, lazy builds, zone-map pruning) against a live ingester
// on the disk backend — the engine whose backend-level locking makes
// concurrent write+read part of the contract. Run with -race.
func TestFilteredReadsConcurrentIngest(t *testing.T) {
	engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	tbl := newBackedTable(t, engine, whereSchema(t))
	fillWidgets(t, tbl, 16)
	mustEnsureIndex(t, tbl, "grp")

	const writers, readers, rounds = 1, 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 16; i < 16+rounds; i++ {
			if _, err := tbl.Insert(Tuple{fmt.Sprintf("p%03d", i), fmt.Sprintf("g%d", i/8), i, float64(i) / 2}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			preds := []Pred{{Col: 1, Want: "g1"}}
			if r%2 == 1 {
				preds = []Pred{{Col: 0, Want: "p004"}}
			}
			for {
				rows, total := tbl.PageWhere(preds, 0, 5)
				if len(rows) > total {
					t.Errorf("reader %d: window %d > total %d", r, len(rows), total)
					return
				}
				for _, tp := range rows {
					for _, p := range preds {
						if fmt.Sprint(tp[p.Col]) != p.Want {
							t.Errorf("reader %d: row %v fails pred %+v", r, tp, p)
							return
						}
					}
				}
				tbl.ScanWhere(preds, func(Tuple) bool { return true })
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}
	wg.Wait()
	// Quiesced: the final state answers exactly.
	if _, total := tbl.PageWhere([]Pred{{Col: 1, Want: "g1"}}, 0, 0); total != 8 {
		t.Fatalf("final g1 total = %d, want 8", total)
	}
}

// TestIndexBuildsRaceInserts races index builds against inserts on the
// internally locked paged engines: one goroutine inserts rows while
// another reads through a forced index, which every insert invalidates
// and the next read rebuilds. Each indexed read must equal a full scan
// of some state between its start and end — every row inserted before
// the read began, in order, and none begun after it ended — so an
// index left stale by an insert that skipped invalidation fails it.
// Run with -race.
func TestIndexBuildsRaceInserts(t *testing.T) {
	for _, engine := range []struct {
		name string
		make func(t *testing.T) Engine
	}{
		{"disk", func(t *testing.T) Engine {
			e, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"columnar", func(*testing.T) Engine { return NewColumnarEngine(4, 2) }},
	} {
		t.Run(engine.name, func(t *testing.T) {
			e := engine.make(t)
			defer e.Close()
			tbl := newBackedTable(t, e, whereSchema(t))
			defer tbl.Close()
			mustEnsureIndex(t, tbl, "grp")

			const rows, groups = 600, 4
			insert := func(i int) error {
				_, err := tbl.Insert(Tuple{fmt.Sprintf("p%03d", i), fmt.Sprintf("g%d", i%groups), i, float64(i) / 2})
				return err
			}
			// want returns the g1 rows among the first n inserted.
			want := func(n int) []string {
				var out []string
				for i := 1; i < n; i += groups {
					out = append(out, fmt.Sprintf("p%03d", i))
				}
				return out
			}
			var inserted atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < rows; i++ {
					if err := insert(i); err != nil {
						t.Error(err)
						return
					}
					inserted.Store(int64(i + 1))
				}
			}()
			defer func() { <-done }() // before the deferred Close
			preds := []Pred{{Col: 1, Want: "g1"}}
			for reading := true; reading; {
				select {
				case <-done:
					reading = false
				default:
				}
				lo := int(inserted.Load())
				got, total := tbl.PageWhere(preds, 0, 0)
				hi := int(inserted.Load()) + 1 // one insert may be in flight
				parts := partsOf(got)
				if total != len(got) || len(parts) < len(want(lo)) || len(parts) > len(want(hi)) ||
					!slices.Equal(parts, want(hi)[:len(parts)]) {
					t.Fatalf("indexed read between %d and %d inserts: %v (total %d)", lo, hi, parts, total)
				}
			}
			if st := tbl.BackendStats(); st.IndexHits == 0 {
				t.Fatalf("no read used the index: %+v", st)
			}
			got, total := tbl.PageWhere(preds, 0, 0)
			ref, refTotal := legacyFilterPage(tbl, preds, 0, 0)
			if total != refTotal || !reflect.DeepEqual(got, ref) {
				t.Fatalf("quiesced indexed read %v (%d) != full scan %v (%d)", got, total, ref, refTotal)
			}
		})
	}
}
