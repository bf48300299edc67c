package kbase

import (
	"math"
	"testing"
)

// TestDedupSemantics pins the Table's set semantics on every backend:
// two tuples are duplicates exactly when every column renders the
// same, compared column by column.
func TestDedupSemantics(t *testing.T) {
	nan2 := math.Float64frombits(0x7ff8000000000042) // NaN with a payload
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name    string
		cols    []string
		inserts []Tuple
		added   []bool // Insert result per row
		len     int
		has     []Tuple // Contains must hold
		hasNot  []Tuple // Contains must fail
	}{
		{
			// A joined key would render both tuples "a\x00b\x00c".
			name:    "nul-bytes-stay-inside-their-column",
			cols:    []string{"x", "y"},
			inserts: []Tuple{{"a\x00b", "c"}, {"a", "b\x00c"}, {"a", "b\x00c"}},
			added:   []bool{true, true, false},
			len:     2,
			has:     []Tuple{{"a\x00b", "c"}, {"a", "b\x00c"}},
			hasNot:  []Tuple{{"a\x00b\x00c", ""}, {"", "a\x00b\x00c"}},
		},
		{
			name:    "int-widens-to-int64",
			cols:    []string{"n:integer"},
			inserts: []Tuple{{5}, {int64(5)}, {-5}},
			added:   []bool{true, false, true},
			len:     2,
			has:     []Tuple{{5}, {int64(5)}, {int64(-5)}},
			hasNot:  []Tuple{{int64(6)}},
		},
		{
			name:    "zero-and-negative-zero-are-distinct",
			cols:    []string{"f:float"},
			inserts: []Tuple{{0.0}, {negZero}, {0.0}, {negZero}},
			added:   []bool{true, true, false, false},
			len:     2,
			has:     []Tuple{{0.0}, {negZero}},
			hasNot:  []Tuple{{1.0}},
		},
		{
			name:    "nan-rows-dedupe",
			cols:    []string{"f:float", "s"},
			inserts: []Tuple{{math.NaN(), "x"}, {nan2, "x"}, {math.NaN(), "y"}},
			added:   []bool{true, false, true},
			len:     2,
			has:     []Tuple{{nan2, "y"}, {math.NaN(), "x"}},
			hasNot:  []Tuple{{math.Inf(1), "x"}},
		},
		{
			// Contains does not type-check: a probe matches the stored
			// tuple that renders the same.
			name:    "ill-typed-probe-matches-rendering",
			cols:    []string{"n:integer", "f:float", "s"},
			inserts: []Tuple{{7, 1.5, "42"}, {8, math.NaN(), "-0"}},
			added:   []bool{true, true},
			len:     2,
			has:     []Tuple{{"7", "1.5", int64(42)}, {int32(8), "NaN", negZero}, {7, float32(1.5), "42"}},
			hasNot:  []Tuple{{"07", 1.5, "42"}, {"+7", 1.5, "42"}, {8, math.NaN(), 0.0}},
		},
	}
	forEachBackend(t, func(t *testing.T, engine Engine) {
		for _, tc := range cases {
			tbl := newBackedTable(t, engine, mustSchema(t, "d", tc.cols...))
			for i, tp := range tc.inserts {
				added, err := tbl.Insert(tp)
				if err != nil || added != tc.added[i] {
					t.Fatalf("%s: Insert(%q) = %v, %v; want %v", tc.name, tp, added, err, tc.added[i])
				}
			}
			if tbl.Len() != tc.len {
				t.Fatalf("%s: Len = %d, want %d", tc.name, tbl.Len(), tc.len)
			}
			for _, tp := range tc.has {
				if !tbl.Contains(tp) {
					t.Errorf("%s: Contains(%q) = false", tc.name, tp)
				}
			}
			for _, tp := range tc.hasNot {
				if tbl.Contains(tp) {
					t.Errorf("%s: Contains(%q) = true", tc.name, tp)
				}
			}
			// Deleting the first tuple leaves every other one findable.
			if !tbl.Delete(tc.inserts[0]) || tbl.Contains(tc.inserts[0]) || tbl.Len() != tc.len-1 {
				t.Fatalf("%s: Delete(%q) did not remove exactly that tuple", tc.name, tc.inserts[0])
			}
			for _, tp := range tc.inserts[1:] {
				if !rowsEqual(tp, tc.inserts[0]) && !tbl.Contains(tp) {
					t.Errorf("%s: after Delete, Contains(%q) = false", tc.name, tp)
				}
			}
			tbl.Close()
		}
	})
}

// TestDedupHashCollision drives the overflow path: distinct tuples
// indexed under one hash are told apart by the column comparison.
func TestDedupHashCollision(t *testing.T) {
	tbl := NewTable(mustSchema(t, "c", "s", "n:integer"))
	rows := []Tuple{{"a", int64(1)}, {"b", int64(2)}, {"c", int64(3)}}
	const h = 42
	for pos, tp := range rows {
		if err := tbl.be.Append(tp); err != nil {
			t.Fatal(err)
		}
		tbl.addToIndex(h, pos)
	}
	for pos, tp := range rows {
		if got := tbl.lookup(tp, h); got != pos {
			t.Fatalf("lookup(%v) = %d, want %d", tp, got, pos)
		}
	}
	if got := tbl.lookup(Tuple{"d", int64(4)}, h); got != -1 {
		t.Fatalf("lookup of an absent tuple = %d", got)
	}
	if len(tbl.index) != 1 || len(tbl.overflow[h]) != 2 {
		t.Fatalf("index %v, overflow %v", tbl.index, tbl.overflow)
	}
}

// TestDedupKeyAllocs checks that hashing and comparing a tuple of the
// three storage types allocates nothing.
func TestDedupKeyAllocs(t *testing.T) {
	a := Tuple{"SMBT3904", int64(-200), 1.5e-7}
	b := Tuple{"SMBT3904", int64(-200), 1.5e-7}
	var h uint64
	allocs := testing.AllocsPerRun(100, func() {
		h ^= hashTuple(a)
		if !rowsEqual(a, b) {
			t.Fatal("rowsEqual")
		}
	})
	if allocs != 0 {
		t.Fatalf("hashTuple+rowsEqual allocate %v times, want 0", allocs)
	}
	if hashTuple(a) != hashTuple(b) {
		t.Fatal("equal tuples hash differently")
	}
}
